package replication

import (
	"context"
	"slices"
	"sort"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// This file is the replication manager's surface for the continuous
// anti-entropy layer (internal/gossip). Reconciliation (reconcile.go) ships
// the whole co-hosted replica table at heal time; gossip instead exchanges
// compact per-object digests and pulls only divergent records, funnelling
// them through the same mergeRecords machinery so both paths converge to
// identical outcomes.

// DigestEntry summarises one object for an anti-entropy digest: its version
// vector, or its tombstone. Digests deliberately omit state payloads — a
// digest's size is O(objects · vector width), never O(state).
type DigestEntry struct {
	VV      VersionVector
	Deleted bool
}

// Digest exports the per-object version-vector summary of the local replica
// table — live objects and tombstones — restricted to objects the peer
// replicates. Two nodes with identical tables produce identical digests for
// each other, so an in-sync pair can prove it without shipping any state.
func (m *Manager) Digest(peer transport.NodeID) map[object.ID]DigestEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[object.ID]DigestEntry, len(m.meta)+len(m.tombstones))
	for id, rs := range m.meta {
		if m.placement != nil && !rs.info.HasReplica(peer) {
			continue
		}
		out[id] = DigestEntry{VV: rs.vv}
	}
	for id, vv := range m.tombstones {
		if m.placement != nil && !m.hostsLocked(id, peer) {
			continue
		}
		out[id] = DigestEntry{VV: vv, Deleted: true}
	}
	return out
}

// hostsLocked reports whether the peer replicates the (possibly deleted)
// object under the placement ring. Tombstones carry no Info, so relevance is
// re-derived from the ring.
func (m *Manager) hostsLocked(id object.ID, peer transport.NodeID) bool {
	_, replicas := m.placement.Place(id)
	return slices.Contains(replicas, peer)
}

// RecordsByID exports full records (state, version vector, info, history)
// for exactly the requested objects — the delta a gossip exchange pulls
// after the digests disagreed. Unknown or tombstoned IDs are skipped; the
// digest path handles deletions separately.
func (m *Manager) RecordsByID(ids []object.ID) []Record {
	sorted := append([]object.ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	m.mu.Lock()
	defer m.mu.Unlock()
	recs := make([]Record, 0, len(sorted))
	for _, id := range sorted {
		rs, ok := m.meta[id]
		if !ok {
			continue
		}
		recs = append(recs, m.recordLocked(id, rs))
	}
	return recs
}

// MergeRecords folds peer records into the local replica table through the
// reconciliation merge, each record decided by the rule a shipped create
// meets (decide): unknown objects are adopted, dominated states overwritten,
// a record newer than the local tombstone re-creates the object, dominating
// states and tombstones are pushed back to the peer, and concurrent live lines
// go through conflict resolution — what a destination is owed leaving as one
// repl.batch before the call returns. nil resolver uses MostUpdatesResolver.
func (m *Manager) MergeRecords(ctx context.Context, peer transport.NodeID, records []Record, resolve ConflictResolver) (ReconcileReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if resolve == nil {
		resolve = MostUpdatesResolver
	}
	var report ReconcileReport
	out := repairs{m: m}
	err := m.mergeRecords([]transport.NodeID{peer}, records, resolve, &report, &out)
	if ferr := out.flush(ctx); err == nil {
		err = ferr
	}
	return report, err
}

// AdoptTombstone applies a remotely learned deletion locally as the delete op
// of a batch does (decide): it buries a replica it is newer than or concurrent
// with, merging the vectors of concurrent sides, and is a duplicate where the
// local vector or tombstone covers it; a live replica it shares no event with
// is another incarnation, which it leaves. It reports whether the local
// replica is owed to the peer: a re-create it has not seen, or another
// incarnation.
func (m *Manager) AdoptTombstone(id object.ID, vv VersionVector) (owed bool) {
	var res [1]opResult
	var d decision
	_, _ = m.applyOps([]batchOp{{Kind: opDelete, ID: id, VV: vv}}, res[:0], &d)
	return d.owed == opApply
}

// TombstoneCount reports how many deletions the node remembers — the chaos
// checker compares tombstone knowledge across replicas after quiescence.
func (m *Manager) TombstoneCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tombstones)
}
