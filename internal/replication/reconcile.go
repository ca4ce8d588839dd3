package replication

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"dedisys/internal/group"
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
	Pushed         int // local states the pass found peers owed (a restatement of one is not counted again)
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
// whole pass: the pull round and the repair round inherit it.
//
// A pass is two rounds whatever the table sizes. The pulls fan out as one
// multicast round; the merge runs sequentially in peer order, so the outcome
// is deterministic, and sends nothing: what it finds the peers are owed is
// staged (repairs) and leaves as one repl.batch per destination after the last
// peer's merge, before the pass returns — the constraint phase that follows
// sees a finished replica phase. Every destination is attempted: a failed one
// counts in replication.propagation_errors and the pass returns an error
// naming the first, so a dead peer does not starve the peers after it.
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
	out := repairs{m: m}
	var err error
	for _, res := range results {
		if res.Err != nil {
			// Peer unreachable again: postpone (still degraded w.r.t. it).
			continue
		}
		report.PeersContacted++
		records, ok := res.Response.([]Record)
		if !ok {
			err = fmt.Errorf("replication: bad pull response %T from %s", res.Response, res.Node)
			break
		}
		peer := peers[slices.Index(peers, res.Node):][:1]
		if err = m.mergeRecords(peer, records, resolve, &report, &out); err != nil {
			break
		}
		m.pushMissing(peer, records, &report, &out)
	}
	// What was staged before a failed merge is still owed.
	if ferr := out.flush(ctx); err == nil {
		err = ferr
	}
	return report, err
}

// repairs is what one pass owes its peers: ops staged as a commit stages
// them, each for one destination, at most one per object and destination — a
// later repair of an object replaces the earlier one in place. They leave as
// a commit's round, one repl.batch per destination. A repair overtaken by a
// commit between staging and flush is skipped at the receiver by its vector,
// like any duplicate.
type repairs struct {
	m      *Manager
	staged []stagedOp
	at     map[repairKey]int // where the op on the object for the destination sits in staged
}

type repairKey struct {
	to transport.NodeID
	id object.ID
}

// stage owes to, one destination, the op and reports whether the object is
// new to its batch. It is not when a conflict against one peer's record was
// resolved for everybody and the next peer's record, pulled before, reads "we
// dominate".
func (r *repairs) stage(to []transport.NodeID, op batchOp) bool {
	key := repairKey{to[0], op.ID}
	k, staged := r.at[key]
	switch {
	case !staged:
		if r.at == nil {
			r.at = make(map[repairKey]int)
		}
		r.at[key] = len(r.staged)
		r.staged = append(r.staged, stagedOp{op: op, dests: to})
	case r.staged[k].op.Kind == opCreate && op.Kind == opApply:
		// The destination has never seen the object and would skip an apply:
		// the create it is owed takes the newer state.
		c := &r.staged[k].op
		c.State, c.Version, c.VV = op.State, op.Version, op.VV
	default:
		r.staged[k].op = op
	}
	return !staged
}

// flush ships what was staged: one wait-for-all round, one batch per
// destination, every destination attempted.
func (r *repairs) flush(ctx context.Context) error {
	if len(r.staged) == 0 {
		return nil
	}
	round := new(repairRound)
	r.m.route(round.init(r.m), r.staged, "")
	_ = r.m.comm.Run(ctx, &round.Round, round) // only an OnVerdict round reports an error
	return round.err
}

// repairRound is a repair flush's round: a commit's, released when every
// send is done, which keeps the first failed destination's error.
type repairRound struct {
	commitRound
	err error
}

func (r *repairRound) Answered(i int, reply any, err error) group.Verdict {
	if r.commitRound.Answered(i, reply, err); err != nil && r.err == nil {
		r.err = fmt.Errorf("replication: repair batch of %d ops to %s: %w", len(r.Payload(i).(*batchMsg).Ops), r.To[i], err)
	}
	return group.Open
}

// Drained overrides the commit's: no straggler of a repair is waited for.
func (r *repairRound) Drained() {}

// mergeRecords folds one peer's replica table into the local one and stages
// what the merge finds the peers are owed; peer is the one-element slice of
// the peer. Each record is decided under the replica lock as the create it
// would ship (decide): adopted, skipped, or buried under a concurrent
// tombstone of its incarnation. A strictly newer local side is owed to the
// peer — our state, or our tombstone — and two concurrent live sides are a
// write-write conflict.
func (m *Manager) mergeRecords(peer []transport.NodeID, records []Record, resolve ConflictResolver, report *ReconcileReport, out *repairs) error {
	var res [1]opResult
	var one [1]batchOp // every record's op: the store write makes it escape
	for _, rec := range records {
		var d decision
		op := &one[0]
		*op = batchOp{Kind: opCreate, ID: rec.ID, Class: rec.Class, State: rec.State, Version: rec.Version, VV: rec.VV, Info: rec.Info}
		if _, err := m.applyOps(one[:], res[:0], &d); err != nil {
			return err
		}
		switch {
		case d.eff == opCreate:
			report.Created++
		case d.eff == opApply:
			report.Adopted++
		case d.res == opConcurrent:
			report.Conflicts++
			report.ConflictIDs = append(report.ConflictIDs, rec.ID)
			m.conflicts.Inc()
			if m.obs.Tracing() {
				m.obs.Emit(obs.EventReplicaConflict, fmt.Sprintf("%s with %s", rec.ID, peer[0]))
			}
			if err := m.resolveConflict(rec, resolve, out); err != nil {
				return err
			}
		}
		switch d.owed {
		case opApply:
			// One that dropped the object in the meantime decides our apply
			// against its tombstone, as it would a commit's.
			if _, err := m.localOp(rec.ID, opApply, false, op); err != nil {
				return err
			}
			if out.stage(peer, *op) {
				report.Pushed++
			}
		case opDelete:
			out.stage(peer, batchOp{Kind: opDelete, ID: rec.ID, VV: d.vv})
		}
	}
	return nil
}

// resolveConflict lets the application (or the generic rule) choose a state,
// then installs it everywhere with a vector dominating both divergent lines.
func (m *Manager) resolveConflict(rec Record, resolve ConflictResolver, out *repairs) error {
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
	// merged vectors, in one hold like any other install; stageState's bump
	// then dominates both, so the resolution propagates.
	m.mu.Lock()
	rs.vv = rs.vv.Merged(rec.VV)
	e.ApplyState(chosen, max(conflict.LocalVersion, conflict.RemoteVersion)+1)
	m.mu.Unlock()
	return m.stageState(rec.ID, out)
}

// pushMissing stages the creation, on the peer, of objects it has never seen
// (created in our partition during the split). Under sharded placement only
// objects the peer replicates are pushed: a heal between nodes of different
// groups moves no object state.
func (m *Manager) pushMissing(peer []transport.NodeID, peerRecords []Record, report *ReconcileReport, out *repairs) {
	seen := make(map[object.ID]struct{}, len(peerRecords))
	for _, rec := range peerRecords {
		seen[rec.ID] = struct{}{}
	}
	m.mu.Lock()
	var missing []object.ID
	for id := range m.meta {
		if m.placement != nil && !m.meta[id].info.HasReplica(peer[0]) {
			continue
		}
		if _, ok := seen[id]; !ok {
			missing = append(missing, id)
		}
	}
	m.mu.Unlock()
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	for _, id := range missing {
		// An object gone from the registry or the table since has no local
		// copy to ship; the peer pulls it from a replica later.
		var op batchOp
		if _, err := m.localOp(id, opCreate, false, &op); err == nil && out.stage(peer, op) {
			report.Pushed++
		}
	}
}
