package replication

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"dedisys/internal/group"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/persistence"
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
	InSync         int // peers whose digest matched ours: nothing moved either way
	Pulled         int // records the peers sent
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
// MostUpdatesResolver). It is the one repair exchange: the reconciliation
// orchestrator drives it with every peer that re-joined the view after a
// partition (§4.4), and the gossip layer with the peer it sampled. The context
// bounds the whole pass: the request round and the repair round inherit it.
//
// Per peer, the exchange is one request and one reply. The request is this
// node's digest for the peer: the sorted salted fingerprints of the replicas
// and tombstones the peer replicates (digestLocked). A peer whose digest is
// the same answers with an empty reply; otherwise it returns its records —
// live or tombstone — whose fingerprints the request lacks, and the request's
// fingerprints that match none of its own (handlePull). Each record is merged
// through the replica rule, and an object behind an unmatched fingerprint that
// came back in no record is one the peer lacks: it is owed our create or our
// tombstone.
//
// A pass is two rounds whatever the table sizes. The requests fan out as one
// round; the merge runs sequentially in peer order, so the outcome is
// deterministic, and sends nothing: what it finds the peers are owed is
// staged (repairs) and leaves as one repl.batch per destination after the last
// peer's merge, before the pass returns — the constraint phase that follows
// sees a finished replica phase. Every destination is attempted: a failed one
// counts in replication.propagation_errors and the pass returns an error
// naming the first, so a dead peer does not starve the peers after it. A peer
// that cannot be reached is skipped: it is not counted in PeersContacted.
func (m *Manager) ReconcileWith(ctx context.Context, peers []transport.NodeID, resolve ConflictResolver) (ReconcileReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if resolve == nil {
		resolve = MostUpdatesResolver
	}
	round := &pullRound{Round: group.Round{From: m.self, Kind: msgPull}}
	salt := mix64(m.salt.Add(0x9e3779b97f4a7c15))
	m.mu.Lock()
	for _, p := range peers {
		if p == m.self {
			continue
		}
		d := m.digestLocked(p, salt)
		req := pullMsg{Salt: salt, Prints: make([]uint64, len(d))}
		for k := range d {
			req.Prints[k] = d[k].print
		}
		round.To, round.digests, round.reqs = append(round.To, p), append(round.digests, d), append(round.reqs, req)
	}
	m.mu.Unlock()
	round.results = make([]group.Result, len(round.To))
	_ = m.comm.Run(ctx, &round.Round, round) // only an OnVerdict round reports an error

	var report ReconcileReport
	out := repairs{m: m}
	var err error
	for i, res := range round.results {
		if res.Err != nil {
			// Peer unreachable again: postpone (still degraded w.r.t. it).
			continue
		}
		report.PeersContacted++
		reply, ok := res.Response.(pullReply)
		if !ok {
			err = fmt.Errorf("replication: bad pull reply %T from %s", res.Response, res.Node)
			break
		}
		if len(reply.Records) == 0 && len(reply.Unmatched) == 0 {
			report.InSync++
			continue
		}
		report.Pulled += len(reply.Records)
		one := round.To[i : i+1]
		if err = m.mergeRecords(one, reply.Records, resolve, &report, &out); err != nil {
			break
		}
		m.stageMissing(one, round.digests[i], reply, &report, &out)
	}
	// What was staged before a failed merge is still owed.
	if ferr := out.flush(ctx); err == nil {
		err = ferr
	}
	return report, err
}

// pullMsg is a pass's request to one peer: the salt and the sorted
// fingerprints of this node's digest for the peer.
type pullMsg struct {
	Salt   uint64
	Prints []uint64
}

// pullReply is a peer's answer to a pullMsg; both lists are empty when the
// digests agree.
type pullReply struct {
	Records   []Record // the peer's live replicas and tombstones whose fingerprints the request lacks, by ID
	Unmatched []uint64 // the request's fingerprints that match none of the peer's own
}

// pullRound is a pass's request round: each peer is sent its own request,
// and each reply is kept for the sequential merge.
type pullRound struct {
	group.Round
	digests [][]digestEntry // per peer, what its request was built from
	reqs    []pullMsg
	results []group.Result
}

func (r *pullRound) Payload(i int) any { return r.reqs[i] }

func (r *pullRound) Answered(i int, reply any, err error) group.Verdict {
	r.results[i] = group.Result{Node: r.To[i], Response: reply, Err: err}
	return group.Open
}

func (r *pullRound) Drained() {}

// handlePull answers a pass's request: it walks its own digest for the
// requester, taken under the same salt, beside the request's, and returns
// what either side lacks — its records, in one hold with the digest, and the
// request's fingerprints it has no entry for.
func (m *Manager) handlePull(from transport.NodeID, payload any) (any, error) {
	req, ok := payload.(pullMsg)
	if !ok {
		return nil, fmt.Errorf("replication: bad pull payload %T", payload)
	}
	var reply pullReply
	m.mu.Lock()
	own := m.digestLocked(from, req.Salt)
	i, j := 0, 0
	for i < len(own) || j < len(req.Prints) {
		switch {
		case j == len(req.Prints) || i < len(own) && own[i].print < req.Prints[j]:
			reply.Records = append(reply.Records, m.recordLocked(own[i].id))
			i++
		case i == len(own) || req.Prints[j] < own[i].print:
			reply.Unmatched = append(reply.Unmatched, req.Prints[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	m.mu.Unlock()
	slices.SortFunc(reply.Records, func(a, b Record) int { return cmp.Compare(a.ID, b.ID) })
	return reply, nil
}

// stageMissing stages, for the peer, the objects behind the request's
// fingerprints it matched none of its entries with and returned no record
// for: it lacks them, and is owed our create, or our tombstone. The local
// side is read as it is now — the merges before may have changed it.
func (m *Manager) stageMissing(peer []transport.NodeID, sent []digestEntry, reply pullReply, report *ReconcileReport, out *repairs) {
	for _, h := range reply.Unmatched {
		k, found := slices.BinarySearchFunc(sent, h, func(e digestEntry, h uint64) int { return cmp.Compare(e.print, h) })
		if !found {
			continue
		}
		id := sent[k].id
		if _, returned := slices.BinarySearchFunc(reply.Records, id, func(r Record, id object.ID) int { return cmp.Compare(r.ID, id) }); returned {
			continue
		}
		// An object gone from the registry or the table since has no local
		// copy to ship; the peer pulls it from a replica later.
		var op batchOp
		if _, _, err := m.localOp(id, opCreate, false, &op); err == nil {
			if out.stage(peer, op) {
				report.Pushed++
			}
			continue
		}
		m.mu.Lock()
		vv, dead := m.tombstones[id]
		m.mu.Unlock()
		if dead {
			out.stage(peer, batchOp{Kind: opDelete, ID: id, VV: vv})
		}
	}
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
	if staged {
		r.staged[k].op = op
		return false
	}
	if r.at == nil {
		r.at = make(map[repairKey]int)
	}
	r.at[key] = len(r.staged)
	r.staged = append(r.staged, stagedOp{op: op, dests: to})
	return true
}

// flush ships what was staged: one wait-for-all round, one batch per
// destination, every destination attempted. A create leaves with the local
// replica as the pass leaves it: one staged before a later merge adopted a
// newer state or placement ships that too, so every repair of an object
// carries the newest placement the pass has seen (a receiver takes a create's
// placement as set at the create's vector).
func (r *repairs) flush(ctx context.Context) error {
	if len(r.staged) == 0 {
		return nil
	}
	for k := range r.staged {
		if op := &r.staged[k].op; op.Kind == opCreate {
			_, _, _ = r.m.localOp(op.ID, opCreate, false, op) // a replica gone since ships as staged
		}
	}
	round := new(repairRound)
	r.m.route(round.init(r.m), r.staged, "")
	_ = r.m.comm.Post(ctx, &round.Round, round) // only an OnVerdict round reports an error
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

// mergeRecords folds records of one peer's replica table into the local one
// and stages what the merge finds the peers are owed; peer is the one-element
// slice of the peer. Each record is decided under the replica lock as the op
// it would ship (decide) — a live one as its create, a tombstone as its
// delete: adopted, buried, skipped, or buried under a concurrent tombstone of
// its incarnation — and a live one brings its placement when that was set at
// a newer vector than ours (placeLocked). A strictly newer local side is owed
// to the peer — our state, or our tombstone, or our placement — and two
// concurrent live sides are a write-write conflict.
func (m *Manager) mergeRecords(peer []transport.NodeID, records []Record, resolve ConflictResolver, report *ReconcileReport, out *repairs) (err error) {
	var res [1]opResult
	var one [1]batchOp
	// What the reply changed, its conflict resolutions too, is stored in one
	// write, also when a record fails half way: the ones before it are
	// installed.
	rp := getRecords(len(records))
	changed := *rp
	defer func() {
		err = errors.Join(err, m.store.Write(changed))
		putRecords(rp, len(changed))
	}()
	for _, rec := range records {
		pulled := merge{placed: rec.Placed}
		d := &pulled.d
		op := &one[0]
		if rec.Deleted {
			*op = batchOp{Kind: opDelete, ID: rec.ID, VV: rec.VV}
		} else {
			*op = batchOp{Kind: opCreate, ID: rec.ID, Class: rec.Class, State: rec.State, Version: rec.Version, VV: rec.VV, Info: rec.Info}
		}
		if _, changed, err = m.applyOps(one[:], res[:0], changed, &pulled); err != nil {
			return err
		}
		switch {
		case d.eff == opCreate:
			report.Created++
		case d.eff == opApply:
			report.Adopted++
		case d.res == opConcurrent && !rec.Deleted:
			report.Conflicts++
			report.ConflictIDs = append(report.ConflictIDs, rec.ID)
			m.conflicts.Inc()
			if m.obs.Tracing() {
				m.obs.Emit(obs.EventReplicaConflict, fmt.Sprintf("%s with %s", rec.ID, peer[0]))
			}
			if err := m.resolveConflict(rec, resolve, out, &changed); err != nil {
				return err
			}
		}
		owed := d.owed
		if owed == 0 && !rec.Deleted && m.placedAfter(rec.ID, rec.Placed) {
			owed = opApply
		}
		switch owed {
		case opApply:
			// The peer is owed our create: on its tombstone only a create
			// lands, and on its live replica the create installs our
			// placement with our state (placeLocked), where an apply would
			// leave it the placement of the incarnation it holds.
			if _, _, err := m.localOp(rec.ID, opCreate, false, op); err != nil {
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

// placedAfter reports whether the local replica of the object holds a
// placement set at a vector newer than placed.
func (m *Manager) placedAfter(id object.ID, placed VersionVector) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, live := m.meta[id]
	if !live {
		return false
	}
	cmp, comparable := rs.placed.Compare(placed)
	return comparable && cmp > 0
}

// resolveConflict lets the application (or the generic rule) choose a state,
// then installs it everywhere with a vector dominating both divergent lines;
// the replica's record goes in records.
func (m *Manager) resolveConflict(rec Record, resolve ConflictResolver, out *repairs, records *[]persistence.Change) error {
	m.mu.Lock()
	rs, ok := m.meta[rec.ID]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownObject, rec.ID)
	}
	e := rs.e
	if e == nil {
		m.mu.Unlock()
		return fmt.Errorf("replication: conflict on %s: %w", rec.ID, object.ErrNotFound)
	}
	// The Conflict goes to application code, which is outside the sharing
	// rules: it gets both states as maps of its own, and its own copy of both
	// vectors.
	local, localVersion := e.Share()
	conflict := Conflict{
		ID:            rec.ID,
		Class:         e.Class(),
		Local:         local.Map(),
		Remote:        rec.State.Map(),
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
	e.ApplyState(object.AttrsOf(chosen), max(conflict.LocalVersion, conflict.RemoteVersion)+1)
	m.mu.Unlock()
	return m.stageState(rec.ID, out, records)
}
