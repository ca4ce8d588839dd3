package replication

import (
	"context"
	"fmt"
	"sort"

	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/transport"
)

// Conflict describes a write-write replica conflict detected while
// propagating missed updates (Figure 4.6): the same logical object was
// changed in two partitions during degraded mode.
type Conflict struct {
	ID            object.ID
	Class         string
	Local, Remote object.State
	LocalVersion  int64
	RemoteVersion int64
	LocalVV       VersionVector
	RemoteVV      VersionVector
	// Histories support rollback-style resolution when recorded.
	LocalHistory, RemoteHistory []HistoryEntry
}

// ConflictResolver is the application-provided replica consistency handler
// (Figure 4.6): it produces the replica-consistent state applied to all
// nodes. Returning an error falls back to the generic rule (most updates
// win, ties broken towards the designated home's partition ordering).
type ConflictResolver func(c Conflict) (object.State, error)

// MostUpdatesResolver is the generic fallback: the replica with the larger
// total update count wins; ties prefer the local state.
func MostUpdatesResolver(c Conflict) (object.State, error) {
	if c.RemoteVV.Total() > c.LocalVV.Total() {
		return c.Remote, nil
	}
	return c.Local, nil
}

// ReconcileReport summarises one replica reconciliation pass.
type ReconcileReport struct {
	PeersContacted int
	Pushed         int // local states propagated to peers
	Adopted        int // remote states adopted locally
	Conflicts      int // write-write conflicts resolved
	Created        int // objects first seen through a peer
	// ConflictIDs lists the objects whose replicas conflicted; the
	// constraint reconciliation phase uses them for NotifyOnReplicaConflict
	// instructions (§3.3).
	ConflictIDs []object.ID
}

// ReconcileWith propagates missed updates between this node and the given
// peers and resolves write-write conflicts through the resolver (nil uses
// MostUpdatesResolver). It is driven by the reconciliation orchestrator
// after a view change re-unites partitions (§4.4). The context bounds the
// whole pass: every pull, push and conflict broadcast inherits it.
//
// The per-peer state pulls fan out concurrently as one multicast round, one
// sender per peer — re-uniting N partitions costs ~1 pull round of
// simulated time instead of ~N — while the merge itself runs sequentially
// in peer order, so the outcome is deterministic and identical to the
// sequential pass.
func (m *Manager) ReconcileWith(ctx context.Context, peers []transport.NodeID, resolve ConflictResolver) (ReconcileReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if resolve == nil {
		resolve = MostUpdatesResolver
	}
	var report ReconcileReport
	results := m.comm.Multicast(ctx, m.self, peers, msgPull, nil)
	if len(results) > 1 {
		m.pullParallel.Inc()
	}
	for _, res := range results {
		if res.Err != nil {
			// Peer unreachable again: postpone (still degraded w.r.t. it).
			continue
		}
		peer := res.Node
		report.PeersContacted++
		records, ok := res.Response.([]Record)
		if !ok {
			return report, fmt.Errorf("replication: bad pull response %T from %s", res.Response, peer)
		}
		if err := m.mergeRecords(ctx, peer, records, resolve, &report); err != nil {
			return report, err
		}
		if err := m.pushMissing(ctx, peer, records, &report); err != nil {
			return report, err
		}
	}
	return report, nil
}

// mergeRecords folds one peer's replica table into the local one.
func (m *Manager) mergeRecords(ctx context.Context, peer transport.NodeID, records []Record, resolve ConflictResolver, report *ReconcileReport) error {
	for _, rec := range records {
		m.mu.Lock()
		if tomb, dead := m.tombstones[rec.ID]; dead {
			// We deleted the object; re-propagate the deletion. The tombstone
			// absorbs the peer's live vector first, so both sides end up
			// holding the same one.
			tomb = tomb.Merged(rec.VV)
			m.tombstones[rec.ID] = tomb
			op := batchOp{Kind: msgDelete, Delete: deleteMsg{ID: rec.ID, VV: tomb}}
			m.mu.Unlock()
			if err := m.sendOp(ctx, peer, op); err != nil {
				return err
			}
			continue
		}
		rs, known := m.meta[rec.ID]
		var local VersionVector
		if known {
			local = rs.vv
		}
		m.mu.Unlock()

		if !known {
			// Object created in the other partition: adopt it.
			if _, _, err := m.applyOps([]batchOp{{Kind: msgCreate, Create: createFromRecord(rec)}}); err != nil {
				return err
			}
			report.Created++
			continue
		}

		cmp, comparable := rec.VV.Compare(local)
		switch {
		case comparable && cmp > 0:
			// Peer dominates: adopt its state — an apply like any other,
			// decided again under the replica lock, so a local commit that
			// landed since the comparison above is not overwritten.
			adopted, _, err := m.applyOps([]batchOp{{Kind: msgApply,
				Apply: applyMsg{ID: rec.ID, State: rec.State, Version: rec.Version, VV: rec.VV}}})
			if err != nil {
				return err
			}
			report.Adopted += adopted
		case comparable && cmp < 0:
			// We dominate: push our state to the peer.
			if err := m.pushState(ctx, peer, rec.ID); err != nil {
				return err
			}
			report.Pushed++
		case comparable:
			// Equal: already consistent.
		default:
			// Concurrent: write-write conflict.
			report.Conflicts++
			report.ConflictIDs = append(report.ConflictIDs, rec.ID)
			m.conflicts.Inc()
			if m.obs.Tracing() {
				m.obs.Emit(obs.EventReplicaConflict, fmt.Sprintf("%s with %s", rec.ID, peer))
			}
			if err := m.resolveConflict(ctx, rec, resolve); err != nil {
				return err
			}
		}
	}
	return nil
}

func createFromRecord(rec Record) createMsg {
	return createMsg{ID: rec.ID, Class: rec.Class, State: rec.State, Version: rec.Version, VV: rec.VV, Info: rec.Info}
}

// sendOp ships one replica operation to the reconciling peer as a one-op
// batch: repl.batch is the only wire format of a replica write, so the peer
// decides a repair exactly as it decides a commit's op. A lost send fails the
// pass; the next one retries.
func (m *Manager) sendOp(ctx context.Context, peer transport.NodeID, op batchOp) error {
	if _, err := m.comm.Send(ctx, m.self, peer, msgBatch, &batchMsg{Ops: []batchOp{op}}); err != nil {
		return fmt.Errorf("replication: push %s of %s to %s: %w", op.Kind, op.id(), peer, err)
	}
	return nil
}

// pushState sends the local replica state of the object to one peer. A peer
// that dropped the object in the meantime skips the op, as it would a
// commit-time apply.
func (m *Manager) pushState(ctx context.Context, peer transport.NodeID, id object.ID) error {
	e, err := m.registry.Get(id)
	if err != nil {
		return fmt.Errorf("replication: push %s: %w", id, err)
	}
	m.mu.Lock()
	rs, ok := m.meta[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownObject, id)
	}
	op := batchOp{Kind: msgApply, Apply: applyMsg{ID: id, VV: rs.vv}}
	op.Apply.State, op.Apply.Version = e.Share()
	m.mu.Unlock()
	return m.sendOp(ctx, peer, op)
}

// resolveConflict lets the application (or the generic rule) choose a state,
// then installs it everywhere with a vector dominating both divergent lines.
func (m *Manager) resolveConflict(ctx context.Context, rec Record, resolve ConflictResolver) error {
	e, err := m.registry.Get(rec.ID)
	if err != nil {
		return fmt.Errorf("replication: conflict on %s: %w", rec.ID, err)
	}
	m.mu.Lock()
	rs, ok := m.meta[rec.ID]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownObject, rec.ID)
	}
	// The Conflict goes to application code, which is outside the sharing
	// rules: it gets its own copy of the local state and of both vectors.
	local, localVersion := e.Share()
	conflict := Conflict{
		ID:            rec.ID,
		Class:         e.Class(),
		Local:         local.Clone(),
		Remote:        rec.State,
		LocalVersion:  localVersion,
		RemoteVersion: rec.Version,
		LocalVV:       rs.vv.Clone(),
		RemoteVV:      rec.VV.Clone(),
		LocalHistory:  append([]HistoryEntry(nil), rs.history...),
		RemoteHistory: rec.History,
	}
	m.mu.Unlock()

	chosen, err := resolve(conflict)
	if err != nil || chosen == nil {
		chosen, _ = MostUpdatesResolver(conflict)
	}

	// Install the choice locally, one version past both lines and over their
	// merged vectors, in one hold like any other install; PropagateState's
	// bump then dominates both, so the resolution propagates.
	m.mu.Lock()
	rs.vv = rs.vv.Merged(rec.VV)
	e.ApplyState(chosen, max(conflict.LocalVersion, conflict.RemoteVersion)+1)
	m.mu.Unlock()
	return m.PropagateState(ctx, rec.ID)
}

// pushMissing creates, on the peer, objects it has never seen (created in
// our partition during the split). Under sharded placement only objects the
// peer replicates are pushed: a heal between nodes of different groups moves
// no object state.
func (m *Manager) pushMissing(ctx context.Context, peer transport.NodeID, peerRecords []Record, report *ReconcileReport) error {
	seen := make(map[object.ID]struct{}, len(peerRecords))
	for _, rec := range peerRecords {
		seen[rec.ID] = struct{}{}
	}
	m.mu.Lock()
	var missing []object.ID
	for id := range m.meta {
		if m.placement != nil && !m.meta[id].info.HasReplica(peer) {
			continue
		}
		if _, ok := seen[id]; !ok {
			missing = append(missing, id)
		}
	}
	m.mu.Unlock()
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	for _, id := range missing {
		e, err := m.registry.Get(id)
		if err != nil {
			continue // no local copy to ship; the peer pulls from a replica later
		}
		m.mu.Lock()
		rs, ok := m.meta[id]
		if !ok {
			m.mu.Unlock()
			continue
		}
		op := batchOp{Kind: msgCreate, Create: createMsg{ID: id, Class: e.Class(), VV: rs.vv, Info: rs.info}}
		op.Create.State, op.Create.Version = e.Share()
		m.mu.Unlock()
		if err := m.sendOp(ctx, peer, op); err != nil {
			return err
		}
		report.Pushed++
	}
	return nil
}
