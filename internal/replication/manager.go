package replication

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"dedisys/internal/constraint"
	"dedisys/internal/group"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/persistence"
	"dedisys/internal/placement"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
	"dedisys/internal/tx"
)

// Message kinds used between replication managers.
const (
	msgFetch = "repl.fetch"
	msgPull  = "repl.pull"
	msgBatch = "repl.batch"
)

// Persistence tables used by the replication service.
const (
	tableReplicaMeta = "replica-meta"
	tableHistory     = "replica-history"
)

// opKind says what a replica op does; its values are the kind bytes of the
// batch's wire form, and zero is none.
type opKind byte

const (
	opCreate opKind = 1 + iota // ID, state, version, vector, class and placement
	opApply                    // ID, state, version and vector
	opDelete                   // ID and vector
)

// known reports whether the kind is one of the three.
func (k opKind) known() bool { return opCreate <= k && k <= opDelete }

// batchOp is one replica operation, shipped at commit and at reconciliation
// alike: Kind says which of the fields it carries.
type batchOp struct {
	Kind    opKind
	ID      object.ID
	Class   string
	State   object.Attrs
	Version int64
	VV      VersionVector
	Info    Info
}

// batchMsg carries all of one transaction's replica operations relevant to a
// single destination, in the transaction's deterministic change order. One
// batchMsg per destination replaces the per-object multicast rounds of the
// seed protocol: a K-object commit costs one multicast round instead of K.
type batchMsg struct {
	Ops []batchOp
}

// threatBatch is the repl.batch of a transaction that changed threats
// (§5.1). It rides gob: threat fields on batchMsg would grow every decoded
// batch, and embedding batchMsg would lend it a form without them.
type threatBatch struct {
	Ops []batchOp
	threat.Delta
}

// opResult is what a replica made of one op of a batch.
type opResult byte

const (
	opApplied    opResult = iota // installed, created or tombstoned
	opDuplicate                  // the local vector already equals or dominates the op's
	opConcurrent                 // the op's vector and the local one are concurrent: skipped
	opUnknown                    // an apply whose create never arrived: skipped
	numOpResults                 // the first code that is none; the wire rejects it and above
)

// landed reports whether the replica holds what the op carried: only then
// does its ack count toward the op's object.
func (c opResult) landed() bool { return c <= opDuplicate }

// batchAck is the reply to a batch: one result per op, or none when every op
// landed. A replica answers such a batch with ackAll.
type batchAck struct {
	Results []opResult
}

// ackAll is the reply to every batch whose ops all landed; nothing writes it.
var ackAll = &batchAck{}

// ackOf reads a destination's reply to a batch: its ack, or nil when the send
// failed or the reply is none.
func ackOf(reply any, err error) *batchAck {
	if a, ok := reply.(*batchAck); ok && err == nil {
		return a
	}
	return nil
}

// landed reports whether the ack says op i of its batch landed; a nil ack
// says no op did.
func (a *batchAck) landed(i int) bool {
	return a != nil && (len(a.Results) == 0 || i < len(a.Results) && a.Results[i].landed())
}

type fetchReply struct {
	Class   string
	State   object.Attrs
	Version int64
	Stale   bool
}

// Record is the replica descriptor a reconciliation pull carries: a live
// replica, or a tombstone (Deleted, with its vector and nothing else).
// Placed is the vector the live replica's placement was set at.
type Record struct {
	ID      object.ID
	Class   string
	State   object.Attrs
	Version int64
	VV      VersionVector
	Info    Info
	Placed  VersionVector
	History []HistoryEntry
	Deleted bool
}

// Estimator predicts the latest version of a possibly stale object
// (getEstimatedLatestVersion of §4.2.1). The default assumes no missed
// updates; applications install rate-based estimators for freshness
// negotiation.
type Estimator func(id object.ID, localVersion int64) int64

// Config assembles a replication manager's dependencies.
type Config struct {
	Self     transport.NodeID
	Net      transport.Transport
	GMS      *group.Membership
	Registry *object.Registry
	Store    *persistence.Store
	Protocol Protocol
	// KeepHistory records intermediate states during degraded mode for
	// rollback-based reconciliation (§4.3). Costly; see Figure 5.6.
	KeepHistory bool
	// Placement, when non-nil, shards the object space: replica metadata is
	// derived from the ring instead of caller-provided Infos, commit batches
	// ship only to an object's replica group, and degraded-mode/quorum
	// decisions run against group membership. Nil keeps the seed's
	// full-replication behaviour bit-for-bit.
	Placement *placement.Ring
	// Threats stores the threats a received batch carries; nil drops them.
	Threats *threat.Store
	// Obs is the shared observability scope; nil observes into a private
	// registry.
	Obs *obs.Observer
}

// Manager is the per-node replication service. It participates in
// transactions as a tx.Resource: at commit it reads the transaction's write
// set and propagates it synchronously to all reachable replicas. It keeps no
// per-transaction state of its own.
type Manager struct {
	self        transport.NodeID
	net         transport.Transport
	gms         *group.Membership
	comm        *group.Comm
	registry    *object.Registry
	store       *persistence.Store
	protocol    Protocol
	keepHistory bool
	placement   *placement.Ring // nil = full replication
	threats     *threat.Store
	obs         *obs.Observer

	propagations *obs.Counter
	conflicts    *obs.Counter
	batchSize    *obs.Counter // objects shipped through batched rounds
	batchRounds  *obs.Counter // commit-time multicast rounds issued
	batchSkipped *obs.Counter // shipped ops that did not land at a replica (concurrent, buried, unknown object)
	propErrors   *obs.Counter // per-object/per-destination propagation failures
	quorumRounds *obs.Counter // commit rounds shipped with threshold-return semantics
	quorumShort  *obs.Counter // threshold rounds that fell short of the quorum
	backlog      *obs.Gauge   // ops queued or in flight to the peers (peer)

	// propagation tracks in-flight background straggler sends of threshold
	// commits; WaitPropagation joins them.
	propagation sync.WaitGroup

	// peers are the senders of repl.batch, one per node ever sent one; their
	// goroutines are joined by senders.
	peersMu sync.Mutex
	peers   map[transport.NodeID]*peer
	senders sync.WaitGroup

	salt atomic.Uint64 // advanced by every reconciliation pass: its digest's salt

	// mu guards the replica table. Lock order: the store's lock, then mu — a
	// replica's record (replicaState.AppendWire) reads the replica under mu
	// while the store encodes it under its own lock — so no code calls the
	// store while it holds mu.
	mu         sync.Mutex
	meta       map[object.ID]*replicaState
	tombstones map[object.ID]VersionVector
	estimator  Estimator
	observer   func(object.ID)
}

// stagedOp is one staged batch operation awaiting its round (route): a
// commit's, or a reconciliation pass's, whose ops have one destination each.
type stagedOp struct {
	op       batchOp
	dests    []transport.NodeID
	replicas int   // full replica count, the quorum denominator
	remote   int32 // dests without this node, counted by route
}

// staging is a commit's scratch: the ops it ships and the records it stores
// in one write, a record per replica and a degraded write's history entry.
// stagingPool recycles it; neither list escapes the commit (background
// straggler sends hold the commit's round and its copy of the ops, not the
// staging slice).
type staging struct {
	ops     []stagedOp
	records []persistence.Change
}

var stagingPool = sync.Pool{New: func() any { return new(staging) }}

// remoteCreate is a creation coordinated by a node outside the object's
// replica group: the entity never enters the local registry or replica
// table, it rides the transaction's write record (tx.Write.Payload) and then
// the commit batch to the group's members.
type remoteCreate struct {
	entity *object.Entity
	info   Info
}

var _ tx.Resource = (*Manager)(nil)

// NewManager creates and wires a replication manager; it registers the
// manager's message handlers on the network.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Protocol == nil {
		cfg.Protocol = PrimaryPerPartition{}
	}
	m := &Manager{
		self:        cfg.Self,
		net:         cfg.Net,
		gms:         cfg.GMS,
		registry:    cfg.Registry,
		store:       cfg.Store,
		protocol:    cfg.Protocol,
		keepHistory: cfg.KeepHistory,
		placement:   cfg.Placement,
		threats:     cfg.Threats,
		obs:         cfg.Obs,
		meta:        make(map[object.ID]*replicaState),
		tombstones:  make(map[object.ID]VersionVector),
		peers:       make(map[transport.NodeID]*peer),
		estimator:   func(_ object.ID, v int64) int64 { return v },
	}
	if m.obs == nil {
		m.obs = obs.New()
	}
	// The comm shares the manager's scope so its multicast counters land
	// next to the replication metrics (per-node under the node observer).
	m.comm = group.NewComm(cfg.Net, group.WithCommObserver(m.obs))
	m.propagations = m.obs.Counter("replication.propagations")
	m.conflicts = m.obs.Counter("replication.conflicts")
	m.batchSize = m.obs.Counter("replication.batch.size")
	m.batchRounds = m.obs.Counter("replication.batch.rounds")
	m.batchSkipped = m.obs.Counter("replication.batch.skipped")
	m.propErrors = m.obs.Counter("replication.propagation_errors")
	m.quorumRounds = m.obs.Counter("replication.quorum.rounds")
	m.quorumShort = m.obs.Counter("replication.quorum.short")
	m.backlog = m.obs.Gauge("replication.backlog")
	for kind, h := range map[string]transport.Handler{
		msgBatch: m.handleBatch,
		msgFetch: m.handleFetch,
		msgPull:  m.handlePull,
	} {
		if err := cfg.Net.Handle(cfg.Self, kind, h); err != nil {
			return nil, fmt.Errorf("replication: register %s: %w", kind, err)
		}
	}
	return m, nil
}

// SetEstimator installs a staleness estimator.
func (m *Manager) SetEstimator(e Estimator) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e != nil {
		m.estimator = e
	}
}

// estimate is the installed estimator's latest version of an object whose
// replica is possibly stale at version v.
func (m *Manager) estimate(id object.ID, v int64) int64 {
	m.mu.Lock()
	est := m.estimator
	m.mu.Unlock()
	return est(id, v)
}

// setObserver installs a callback notified of every update this replica
// applies or propagates (used by the rate estimator).
func (m *Manager) setObserver(fn func(object.ID)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observer = fn
}

// observe notifies the observer, if any.
func (m *Manager) observe(id object.ID) {
	m.mu.Lock()
	fn := m.observer
	m.mu.Unlock()
	if fn != nil {
		fn(id)
	}
}

// Degraded reports whether this node currently perceives the system as
// degraded.
func (m *Manager) Degraded() bool { return m.gms.Degraded(m.self) }

// view returns this node's current view.
func (m *Manager) view() group.View { return m.gms.ViewOf(m.self) }

// viewFor returns the view a protocol decision about the object consults:
// the full node view under full replication, the view filtered to the
// object's replica group under sharded placement. Group-local views keep
// every protocol's reachable-replica arithmetic confined to the group, so a
// partition that leaves the group intact does not degrade its objects.
func (m *Manager) viewFor(info Info) group.View {
	if m.placement == nil {
		return m.view()
	}
	return m.gms.FilteredView(m.self, info.Replicas)
}

// weightFor returns the partition weight a protocol decision about the
// object consults: system-wide under full replication, group-local under
// sharded placement.
func (m *Manager) weightFor(info Info) float64 {
	if m.placement == nil {
		return m.gms.PartitionWeight(m.self)
	}
	return m.gms.PartitionWeightWithin(m.self, info.Replicas)
}

// effectiveDegraded narrows the commit-wide degraded verdict to the object's
// replica group: under placement, degraded-mode history is keyed to whether
// the object's own group is split, not the whole cluster.
func (m *Manager) effectiveDegraded(info Info, global bool) bool {
	if m.placement == nil {
		return global
	}
	return m.gms.DegradedWithin(m.self, info.Replicas)
}

// placedInfo derives an object's replica metadata from the placement ring.
// The ring is deterministic over the object ID, so every node derives the
// same Info without ever having seen the object. preferred keeps the
// creating node as home when it is part of the replica set (matching the
// seed's creator-is-home behaviour); otherwise the group's first-preference
// node is the home.
func (m *Manager) placedInfo(id object.ID, preferred transport.NodeID) Info {
	_, replicas := m.placement.Place(id)
	home := replicas[0]
	if preferred != "" && slices.Contains(replicas, preferred) {
		home = preferred
	}
	return NewInfo(home, replicas)
}

// RouteInfo resolves the replica placement of an object for routing: recorded
// metadata first, the placement ring as fallback, so a node outside the
// object's group (which never received the create metadata) derives the
// placement instead of failing. Under full replication there is no fallback —
// like Info, metadata is the only source.
func (m *Manager) RouteInfo(id object.ID) (Info, error) {
	m.mu.Lock()
	rs, ok := m.meta[id]
	m.mu.Unlock()
	if ok {
		return rs.info, nil
	}
	if m.placement != nil {
		return m.placedInfo(id, ""), nil
	}
	return Info{}, fmt.Errorf("%w: %s", ErrUnknownObject, id)
}

// Info returns the replica placement of an object.
func (m *Manager) Info(id object.ID) (Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.meta[id]
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrUnknownObject, id)
	}
	return rs.info, nil
}

// VersionVector returns a copy of the local replica's version vector: the
// caller is outside the package's never-written rule and may keep or change
// what it gets.
func (m *Manager) VersionVector(id object.ID) (VersionVector, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.meta[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownObject, id)
	}
	return rs.vv.Clone(), nil
}

// History returns the recorded degraded-mode history of an object.
func (m *Manager) History(id object.ID) []HistoryEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.meta[id]
	if !ok {
		return nil
	}
	out := make([]HistoryEntry, len(rs.history))
	copy(out, rs.history)
	return out
}

// ClearHistory drops all degraded-mode history (after reconciliation).
func (m *Manager) ClearHistory() {
	m.mu.Lock()
	for _, rs := range m.meta {
		rs.history = nil
	}
	m.mu.Unlock()
	m.store.DropTable(tableHistory)
}

// Coordinator returns the node that must coordinate a write on the object in
// this node's current view (group-local under sharded placement).
func (m *Manager) Coordinator(id object.ID) (transport.NodeID, error) {
	info, err := m.RouteInfo(id)
	if err != nil {
		return "", err
	}
	return m.protocol.Coordinator(info, m.viewFor(info))
}

// CheckWrite reports whether the protocol permits a write on the object from
// this node's partition. Under sharded placement both the view and the
// partition weight are group-local: a quorum protocol, for example, demands
// a quorum of the object's replica group, not of the whole cluster.
func (m *Manager) CheckWrite(id object.ID) error {
	info, err := m.RouteInfo(id)
	if err != nil {
		return err
	}
	return m.protocol.WriteAllowed(info, m.viewFor(info), m.weightFor(info))
}

// ReadInfo is the placement a read of an object goes by: its metadata, or,
// without metadata, the replicas that may hold it. That is the ring's group
// for a node outside it or a member the create has not reached, and under
// full replication any member of the view. An object this node deleted or
// saw deleted, whose tombstone it holds, is unknown: a replica the delete has
// not reached yet would serve its old state.
func (m *Manager) ReadInfo(id object.ID) (info Info, known bool, err error) {
	m.mu.Lock()
	rs, known := m.meta[id]
	_, deleted := m.tombstones[id]
	m.mu.Unlock()
	switch {
	case known:
		return rs.info, true, nil
	case deleted:
		return Info{}, false, fmt.Errorf("%w: %s", ErrUnknownObject, id)
	case m.placement != nil:
		return m.placedInfo(id, ""), false, nil
	}
	return Info{Replicas: m.view().Members}, false, nil
}

// Lookup resolves an object for reading, preferring the local replica (reads
// are always local under P4, §4.3). For objects without a local replica the
// state is fetched from a reachable replica (ReadInfo). The returned
// staleness reflects the protocol's judgement in the current view.
func (m *Manager) Lookup(ctx context.Context, id object.ID) (*object.Entity, constraint.Staleness, error) {
	info, known, err := m.ReadInfo(id)
	if err != nil {
		return nil, constraint.Staleness{}, err
	}
	view := m.viewFor(info)
	stale := replicaUnreachable(info, view) && m.protocol.PossiblyStale(info, view, m.weightFor(info))
	if known && info.HasReplica(m.self) {
		e, err := m.registry.Get(id)
		if err != nil {
			return nil, constraint.Staleness{}, fmt.Errorf("replication: local replica of %s: %w", id, err)
		}
		v := e.Version()
		st := constraint.Staleness{PossiblyStale: stale, Version: v, EstimatedLatest: v}
		if stale {
			st.EstimatedLatest = m.estimate(id, v)
		}
		return e, st, nil
	}
	// Remote read from the first reachable replica.
	for _, r := range info.Replicas {
		if r == m.self || !view.Contains(r) {
			continue
		}
		resp, err := m.comm.Send(ctx, m.self, r, msgFetch, id)
		if err != nil {
			continue
		}
		fr, ok := resp.(fetchReply)
		if !ok {
			continue
		}
		e := object.New(fr.Class, id, nil)
		e.Restore(fr.State, fr.Version)
		st := constraint.Staleness{PossiblyStale: stale || fr.Stale, Version: fr.Version, EstimatedLatest: fr.Version}
		if st.PossiblyStale {
			st.EstimatedLatest = m.estimate(id, fr.Version)
		}
		return e, st, nil
	}
	return nil, constraint.Staleness{}, fmt.Errorf("%w: %s", ErrNoReplica, id)
}

// HasLocalReplica reports whether this node hosts a copy of the object.
func (m *Manager) HasLocalReplica(id object.ID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.meta[id]
	return ok && rs.info.HasReplica(m.self)
}

// Create materialises a new replicated entity. The creation is propagated to
// the reachable replica nodes at transaction commit; unreachable replicas
// catch up during reconciliation. Under sharded placement the caller's Info
// is overridden by the ring (the creating node stays home when it is part of
// the object's replica group); otherwise the caller's Info is normalized and
// recorded as-is.
func (m *Manager) Create(t *tx.Tx, e *object.Entity, info Info) error {
	id := e.ID()
	if m.placement != nil {
		preferred := info.Home
		if preferred == "" {
			preferred = m.self
		}
		info = m.placedInfo(id, preferred)
		if !info.HasReplica(m.self) {
			// A node outside the object's replica group coordinates the
			// creation but keeps no replica state: the entity rides the write
			// record to the commit, ships to the group, and this node forgets
			// it. Later reads route through the ring, which derives the same
			// placement.
			t.RecordWrite(tx.Created, id, remoteCreate{entity: e, info: info})
			return nil
		}
	} else {
		if len(info.Replicas) == 0 {
			info.Replicas = []transport.NodeID{info.Home}
		}
		if info.Home == "" {
			info.Home = m.self
		}
		info = NewInfo(info.Home, info.Replicas)
	}
	var hosted *object.Entity
	if info.HasReplica(m.self) {
		if err := m.registry.Add(e); err != nil {
			return fmt.Errorf("replication: create %s: %w", id, err)
		}
		t.RecordCreate(m.registry, id)
		hosted = e
	} else {
		t.RecordWrite(tx.Created, id, nil)
	}
	m.mu.Lock()
	// Re-creating a deleted ID continues its history: a vector restarted at
	// zero would sit under the tombstone the other replicas hold, and they
	// would take the creation for a duplicate (decide).
	tomb, recreated := m.tombstones[id]
	vv := VersionVector{{Node: m.self}}
	if recreated {
		vv = tomb
		delete(m.tombstones, id)
	}
	m.meta[id] = m.newReplica(id, hosted, info, vv)
	m.mu.Unlock()
	t.RecordUndo(func() {
		m.mu.Lock()
		delete(m.meta, id)
		if recreated {
			m.tombstones[id] = tomb
		}
		m.mu.Unlock()
	})
	return nil
}

// Delete removes a replicated entity; the deletion propagates at commit.
func (m *Manager) Delete(t *tx.Tx, id object.ID) error {
	m.mu.Lock()
	rs, ok := m.meta[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownObject, id)
	}
	info := rs.info
	delete(m.meta, id)
	// The deletion is an event: a re-create after it and a write it never
	// saw then reach vectors that tell them apart (decide).
	m.tombstones[id] = rs.vv.Bumped(m.self)
	m.mu.Unlock()

	if info.HasReplica(m.self) {
		e, err := m.registry.Get(id)
		if err != nil {
			return fmt.Errorf("replication: delete %s: %w", id, err)
		}
		if err := m.registry.Remove(id); err != nil {
			return fmt.Errorf("replication: delete %s: %w", id, err)
		}
		t.RecordDelete(m.registry, e)
	} else {
		t.RecordWrite(tx.Deleted, id, nil)
	}
	t.RecordUndo(func() {
		m.mu.Lock()
		m.meta[id] = rs
		delete(m.tombstones, id)
		m.mu.Unlock()
	})
	return nil
}

// Prepare implements tx.Resource; propagation happens at commit.
func (m *Manager) Prepare(t *tx.Tx) error { return nil }

// Commit implements tx.Resource: synchronous update propagation from the
// coordinator to all reachable replicas, persistence of the coordinator's
// replica records, and degraded-mode history recording. The transaction's write set (in
// first-touch order) becomes one batch per destination, shipped in a single
// round through the destinations' senders (peer), which send in parallel: a
// K-object commit costs ~1 simulated network hop instead of ~K. Sender-side
// bookkeeping — version-vector bumps, degraded-mode history, estimator
// observation — happens per object while staging, and the replica's records
// of all objects are stored in one write before the round is posted. The
// threat change the transaction made (threat.KeyDelta) leaves with it
// (commitBatched). Per-object preparation failures are
// joined into the returned error and counted, together with per-destination
// send failures, in replication.propagation_errors. A transaction that wrote
// nothing and changed no threat takes no lock and reads no view.
func (m *Manager) Commit(t *tx.Tx) error {
	var (
		st       *staging
		view     group.View
		degraded bool
		writes   int64
		errs     []error
	)
	t.Writes(func(w tx.Write) {
		if st == nil {
			st = stagingPool.Get().(*staging)
			view, degraded = m.view(), m.Degraded()
		}
		writes++
		st.ops = append(st.ops, stagedOp{})
		ship, err := m.stage(w, view, degraded, st)
		if err != nil {
			m.propErrors.Inc()
			errs = append(errs, fmt.Errorf("%s: %w", w.ID, err))
		}
		if !ship {
			st.ops = st.ops[:len(st.ops)-1]
		}
	})
	delta, _ := t.Value(threat.KeyDelta).(*threat.Delta)
	if st == nil {
		if delta != nil {
			m.AnnounceThreats(t.Context(), *delta)
		}
		return nil
	}
	m.propagations.Add(writes)
	// The replica's records go to the store in one write before the round is
	// posted. A commit whose records cannot be stored ships nothing: no
	// replica is sent what its coordinator did not store, and reconciliation
	// repairs them all.
	if err := m.store.Write(st.records); err != nil {
		m.propErrors.Inc()
		errs = append(errs, err)
		st.ops = st.ops[:0]
	}
	if len(st.ops) > 0 || delta != nil {
		if err := m.commitBatched(t, st.ops, view.Members, delta); err != nil {
			errs = append(errs, err)
		}
	}
	// The staging never escapes the commit (background straggler sends hold
	// the per-destination batches), so it can be reused; clearing drops the
	// payload and replica references before pooling.
	clear(st.ops)
	clear(st.records)
	st.ops, st.records = st.ops[:0], st.records[:0]
	stagingPool.Put(st)
	return errors.Join(errs...)
}

// recordsPool recycles the record lists of coalesced batches and merged pull
// replies, which outgrow a stack array; a list never outlives the write that
// stores it.
var recordsPool = sync.Pool{New: func() any { return new([]persistence.Change) }}

// getRecords draws from recordsPool an empty list with room for n records:
// an op owes at most one, and so does a pulled record, but for a conflict.
func getRecords(n int) *[]persistence.Change {
	rp := recordsPool.Get().(*[]persistence.Change)
	*rp = slices.Grow((*rp)[:0], n)
	return rp
}

// putRecords drops the replica references of the first n records of rp's
// list and returns it to recordsPool. The list goes back as it was drawn, not
// as its user last held it: a stack array a handler used instead must not
// flow into the pool, and a list that outgrew it is left behind.
func putRecords(rp *[]persistence.Change, n int) {
	clear((*rp)[:min(n, cap(*rp))])
	recordsPool.Put(rp)
}

// stage does the coordinator's bookkeeping for one entry of the write set:
// it puts the operation to ship in the last slot of st.ops and the record
// change the replica owes in st.records; ship is false when there is no
// operation.
func (m *Manager) stage(w tx.Write, view group.View, degraded bool, st *staging) (ship bool, err error) {
	s := &st.ops[len(st.ops)-1]
	switch w.Kind {
	case tx.Deleted:
		*s, ship = m.stageDelete(w.ID, view)
		if ship {
			st.records = append(st.records, persistence.Change{Table: tableReplicaMeta, Key: string(w.ID), Delete: true})
		}
		return ship, nil
	case tx.Created:
		if rc, remote := w.Payload.(remoteCreate); remote {
			*s = m.stageCreateRemote(rc, view)
			return true, nil
		}
		err = m.stageLocal(w.ID, opCreate, view, degraded, s, &st.records)
	default:
		err = m.stageLocal(w.ID, opApply, view, degraded, s, &st.records)
	}
	return err == nil, err
}

// Forwarded is the context of an invocation a node runs for the node that
// forwarded it and waits on the reply (§4.3: a write is routed to the
// object's primary). When the commit may (replyTo), it leaves the requester
// out of its round and puts in Apply the batch it would have been sent, for
// the reply to carry back (ApplyForwarded).
type Forwarded struct {
	context.Context
	Requester transport.NodeID
	Apply     any // *batchMsg or *threatBatch; nil when the round reached the requester or nothing was written
}

// commitBatched ships the staged operations of t in one multicast round, the
// one route builds, and delta, the threat change t made, to every member of
// the view the commit staged under: inside the round's batches where the
// round reaches the member, in the reply to the requester of a forwarded
// commit (replyTo), and in a batch of its own with no ops (announce)
// everywhere else.
func (m *Manager) commitBatched(t *tx.Tx, staged []stagedOp, members []transport.NodeID, delta *threat.Delta) error {
	fw, _ := t.Context().(*Forwarded)
	requester := m.replyTo(fw, staged)
	r, uniform := m.route(nil, staged, requester)
	if requester != "" {
		// The reply carries the requester's one-op batch in memory of its own:
		// the round's is reused once its sends drain.
		one := &oneOpBatch{op: [1]batchOp{staged[0].op}}
		one.Ops = one.op[:]
		fw.Apply = &one.batchMsg
		if delta != nil {
			fw.Apply = &threatBatch{Ops: one.Ops, Delta: *delta}
		}
	}
	if r == nil {
		// Nothing but the requester's reply, if anything, carries the change.
		if delta != nil {
			m.announce(t.Context(), members, nil, requester, *delta)
		}
		return nil
	}
	if q, isQuorum := m.protocol.(Quorum); isQuorum {
		// Threshold commit: the round returns once every object of the batch
		// has its own quorum. The coordinator's own apply is an object's first
		// ack, so its remote requirement is one less; it can never exceed the
		// object's reachable destinations (WriteAllowed gated on the quorum
		// being reachable, and reconciliation covers races between that check
		// and the send). A batch no object of which waits for a remote ack
		// starts its sends and returns.
		m.quorumRounds.Inc()
		r.Until = group.AtOnce
		for k := range staged {
			s := &staged[k]
			t := tally{missing: min(int32(q.CommitAcks(s.replicas))-1, s.remote), open: s.remote}
			if t.missing <= 0 {
				continue
			}
			r.Until = group.OnVerdict
			switch {
			case !uniform:
				if cap(r.objects) == 0 {
					r.objects = make([]objectAcks, 0, len(staged)-k)
				}
				r.objects = append(r.objects, objectAcks{id: s.op.ID, tally: t})
			case t.missing > r.all.missing:
				r.all = t // shared destinations: the strictest object decides
			}
		}
	}
	if delta != nil {
		r.threats = &threatBatch{Delta: *delta}
		if uniform {
			r.threats.Ops = r.shared.Ops
		}
	}
	r.holds.Store(2) // this commit and the round's sends
	m.batchRounds.Inc()
	m.batchSize.Add(int64(len(staged)))
	m.propagation.Add(1)
	err := m.comm.Post(t.Context(), &r.Round, r)
	if r.threats != nil {
		m.announce(t.Context(), members, r.To, requester, r.threats.Delta)
		r.Wait() // every member holds the change when the commit returns, after an early release too
	}
	r.let()
	if err != nil {
		m.quorumShort.Inc()
		m.propErrors.Inc()
		return fmt.Errorf("replication: quorum commit: %w", err)
	}
	return nil
}

// AnnounceThreats ships a threat change — a reconciliation pass's removals —
// to every other member of this node's view, as a commit ships one to the
// members its round does not reach, and returns once each has answered.
func (m *Manager) AnnounceThreats(ctx context.Context, d threat.Delta) {
	m.announce(ctx, m.view().Members, nil, "", d)
}

// announce ships the threat change d in a batch with no ops to each of
// members but this node, the requester and those in reached, through their
// peers' senders: behind every batch posted to the peer before, and, as a
// batch that carries threats travels alone, overtaken by none posted after.
// It returns once each has answered.
func (m *Manager) announce(ctx context.Context, members, reached []transport.NodeID, requester transport.NodeID, d threat.Delta) {
	var r *commitRound
	for _, p := range members {
		if p == m.self || p == requester || slices.Contains(reached, p) {
			continue
		}
		if r == nil {
			r = newCommitRound(m, 0)
			r.threats = &threatBatch{Delta: d}
		}
		r.To = append(r.To, p)
	}
	if r == nil {
		return
	}
	r.holds.Store(2) // this call and the round's sends
	m.propagation.Add(1)
	_ = m.comm.Post(ctx, &r.Round, r) // released on the last answer: reports no error
	r.let()
}

// route builds the round that ships the staged ops — a commit's, and a
// reconciliation's repairs — in r, or, when r is nil, in a round it allocates
// at the first remote destination found: a commit whose replicas are all local
// (single-node, or the coordinator is the only reachable replica) makes none,
// and route returns nil. Every destination of an op but this node and skip is
// sent one message holding, in staging order, the ops addressed to it (a
// commit's deletes address every view member under full replication, the
// ring-derived replica group under sharded placement); To is sorted. uniform
// reports that every destination is sent every op.
func (m *Manager) route(r *commitRound, staged []stagedOp, skip transport.NodeID) (_ *commitRound, uniform bool) {
	total := 0
	for k := range staged {
		s := &staged[k]
		s.remote = 0
		for _, d := range s.dests {
			if d == m.self || d == skip {
				continue
			}
			s.remote++
			if r == nil {
				r = newCommitRound(m, len(staged))
			}
			if !slices.Contains(r.To, d) {
				r.To = append(r.To, d)
			}
		}
		total += int(s.remote)
	}
	if r == nil {
		return nil, false
	}
	slices.Sort(r.To)
	// When every destination replicates every object — each op has as many
	// remote destinations as their union: every single-group commit — all of
	// them are sent the same ops, so one run and one message serve the round.
	// Otherwise the batches are contiguous runs of one backing array. Either
	// is shared.Ops, which nothing writes to after this block. A reused round
	// keeps the capacity of its arrays, and a one-op round has its op's room
	// inline: a one-op commit is always uniform.
	uniform = total == len(staged)*len(r.To)
	n := total
	if uniform {
		n = len(staged)
	}
	ops := r.shared.Ops[:0]
	if cap(ops) < n {
		ops = make([]batchOp, 0, n)
	}
	if uniform {
		for k := range staged {
			ops = append(ops, staged[k].op)
		}
	} else {
		r.batches = slices.Grow(r.batches[:0], len(r.To))[:len(r.To)]
		for i, d := range r.To {
			first := len(ops)
			for k := range staged {
				if slices.Contains(staged[k].dests, d) {
					ops = append(ops, staged[k].op)
				}
			}
			r.batches[i].Ops = ops[first:len(ops):len(ops)]
		}
	}
	r.shared.Ops = ops
	return r, uniform
}

// replyTo names the requester of a forwarded commit when its batch can ride
// the invocation's reply: the commit ships one op (a forwarded invocation
// writes its target alone), the requester is one of its destinations, no op
// on the object is queued or in flight to it — the reply would overtake that
// op — and under Quorum the other destinations can still make the quorum —
// the commit returns before the reply lands, so the requester's apply cannot
// be one of its acks. Otherwise it names nobody.
func (m *Manager) replyTo(fw *Forwarded, staged []stagedOp) transport.NodeID {
	if fw == nil || len(staged) != 1 || !slices.Contains(staged[0].dests, fw.Requester) || m.queues(fw.Requester, staged[0].op.ID) {
		return ""
	}
	if q, isQuorum := m.protocol.(Quorum); isQuorum {
		s := &staged[0]
		others := len(s.dests) - 1 // remote destinations but the requester
		if slices.Contains(s.dests, m.self) {
			others--
		}
		if q.CommitAcks(s.replicas)-1 > others {
			return ""
		}
	}
	return fw.Requester
}

// tally is the ack account of a threshold commit: of one object, or of the
// whole batch when every destination carries every object.
type tally struct {
	missing int32 // acks the commit still waits for
	open    int32 // destinations that have not answered
}

// answer books one destination's outcome and returns the standing after it.
func (t *tally) answer(acked bool) group.Verdict {
	t.open--
	if acked {
		t.missing--
	}
	return t.verdict()
}

func (t *tally) verdict() group.Verdict {
	switch {
	case t.missing <= 0:
		return group.Satisfied
	case t.missing > t.open:
		return group.Hopeless
	}
	return group.Open
}

// objectAcks is one object's account in a mixed batch: an ack counts toward
// the object only from a destination whose batch carried it, and only if the
// object's op landed there.
type objectAcks struct {
	id object.ID
	tally
}

// commitRound is one commit's multicast round and its owner: what each
// destination is sent, and when the commit may return. It hands out nothing,
// so it is reused (DESIGN.md §15): its two holders are the commit, until
// commitBatched returns, and its sends, until the round drains, and whichever
// lets go last puts it back on rounds. A one-op commit's round is allocated
// with its op (oneOpRound). A threat change for the members a commit's round
// does not reach leaves in one with no ops (announce). A reconciliation's
// repairs leave in one too (repairRound), which is never reused.
type commitRound struct {
	group.Round
	m *Manager
	// shared is what every destination is sent when all of them replicate
	// every object of the batch; batches, one per destination, is set
	// otherwise, each a run of shared.Ops.
	shared  batchMsg
	batches []batchMsg
	// threats, set when the batch carries any, is what every destination is
	// sent in place of shared (one pointer: the round stays in 288 bytes).
	threats *threatBatch
	// all is the batch's one account when the destinations are shared — the
	// plain count — and objects the per-object accounts of a mixed batch:
	// the commit is satisfied when every object has its own quorum, hopeless
	// when one no longer can. Under a protocol that waits for every replica
	// neither is set and the verdicts go unread.
	all     tally
	objects []objectAcks
	holds   atomic.Int32 // of this round's memory (let)
}

// oneOpRound is the round of a commit that ships one op, with the op's run
// in the same block: 384 bytes, less than the round and a separate one-op run
// took in two.
type oneOpRound struct {
	commitRound
	op [1]batchOp
}

// rounds is the free list of commit rounds (commitRound.let).
var rounds sync.Pool

// newCommitRound returns the round of a commit staging n ops: a reused one,
// or a new one, which for one op comes with its shared run.
func newCommitRound(m *Manager, n int) *commitRound {
	if r, ok := rounds.Get().(*commitRound); ok {
		return r.init(m)
	}
	if n != 1 {
		return new(commitRound).init(m)
	}
	one := new(oneOpRound)
	one.shared.Ops = one.op[:]
	return one.init(m)
}

// init makes r a round of m's repl.batch with no destination yet.
func (r *commitRound) init(m *Manager) *commitRound {
	r.m, r.From, r.Kind = m, m.self, msgBatch
	return r
}

// let is one holder letting go of the round. The last puts it on rounds,
// zeroing every reference it holds — the ops, the destinations, the manager,
// and the context and owner the engine kept — and keeping its arrays'
// capacity: a one-op round's op stays its shared run.
func (r *commitRound) let() {
	if r.holds.Add(-1) != 0 {
		return
	}
	clear(r.shared.Ops)
	clear(r.batches)
	clear(r.objects)
	clear(r.To)
	to := r.To[:0]
	*r = commitRound{shared: batchMsg{Ops: r.shared.Ops[:0]}, batches: r.batches[:0], objects: r.objects[:0]}
	r.To = to
	rounds.Put(r)
}

// ops returns the ops destination i is sent.
func (r *commitRound) ops(i int) []batchOp {
	if len(r.batches) != 0 {
		return r.batches[i].Ops
	}
	return r.shared.Ops
}

// Dispatch implements group.Dispatcher: each destination's batch joins the
// queue of its peer's sender.
func (r *commitRound) Dispatch() {
	for i, to := range r.To {
		r.m.peerFor(to).post(r, i)
	}
}

// Payload implements group.Owner.
func (r *commitRound) Payload(i int) any {
	switch {
	case r.threats == nil && len(r.batches) == 0:
		return &r.shared
	case r.threats == nil:
		return &r.batches[i]
	case len(r.batches) == 0:
		return r.threats
	}
	return &threatBatch{Ops: r.batches[i].Ops, Delta: r.threats.Delta}
}

// Answered implements group.Owner. A destination's ack counts toward an
// object only if the object's op landed there: a replica that skipped it holds
// nothing the quorum could be made of. Send failures are non-fatal —
// unreachable replicas catch up during reconciliation — but visible: each is
// counted in replication.propagation_errors, stragglers' included.
func (r *commitRound) Answered(i int, reply any, err error) group.Verdict {
	if err != nil {
		r.m.propErrors.Inc()
	}
	ack := ackOf(reply, err)
	if len(r.objects) == 0 {
		acked := ack != nil
		for k := range r.ops(i) {
			acked = acked && ack.landed(k)
		}
		return r.all.answer(acked)
	}
	// The objects and the destination's ops are both in staging order, so
	// each object's op is searched for after the last one found.
	ops := r.batches[i].Ops
	v, at := group.Satisfied, 0
	for k := range r.objects {
		o := &r.objects[k]
		ov := o.verdict()
		j := at
		for j < len(ops) && ops[j].ID != o.id {
			j++
		}
		if j < len(ops) {
			ov, at = o.answer(ack.landed(j)), j+1
		}
		switch {
		case ov == group.Hopeless:
			v = group.Hopeless
		case ov == group.Open && v == group.Satisfied:
			v = group.Open
		}
	}
	return v
}

// Drained implements group.Owner: the round's last send — a background
// straggler's, after a threshold return — has finished. A round the commit
// has let go of goes back on the free list before the propagation is done, so
// WaitPropagation implies that no round is still being cleared.
func (r *commitRound) Drained() {
	m := r.m
	r.let()
	m.propagation.Done()
}

// stageLocal does the coordinator's bookkeeping for an object the
// transaction created or updated — version-vector bump, the replica's record
// appended to records (class, state, version, vector and placement, like the
// JNDI name, primary key and serialized creation request the prototype
// stored, §5.1; the commit stores them all in one write), degraded-mode
// history, whose entry goes in records too — and stages the op in s. An apply
// is also observed by the estimator.
func (m *Manager) stageLocal(id object.ID, kind opKind, view group.View, degraded bool, s *stagedOp, records *[]persistence.Change) error {
	rs, info, err := m.localOp(id, kind, true, &s.op)
	if err != nil {
		return err
	}
	s.dests, s.replicas = info.reachableReplicas(view), len(info.Replicas)
	op := &s.op
	*records = append(*records, persistence.Change{Table: tableReplicaMeta, Key: string(id), Value: rs})
	if m.keepHistory && m.effectiveDegraded(info, degraded) {
		m.recordHistory(id, op, records)
	}
	if kind == opApply {
		m.observe(id)
	}
	return nil
}

// stageCreateRemote builds the staged create for an object this node does
// not replicate: the entity never touched the registry or replica table, so
// the message carries the transaction's entity directly and no local
// bookkeeping (metadata, persistence, history) takes place. The version
// vector starts at one creation event from the coordinator, matching what a
// member creator's bumped vector would carry.
func (m *Manager) stageCreateRemote(rc remoteCreate, view group.View) stagedOp {
	op := batchOp{Kind: opCreate, ID: rc.entity.ID(), Class: rc.entity.Class(), VV: VersionVector{{Node: m.self, Count: 1}}, Info: rc.info}
	op.State, op.Version = rc.entity.Share()
	return stagedOp{op: op, dests: rc.info.reachableReplicas(view), replicas: len(rc.info.Replicas)}
}

// localOp builds in dst the op of the given kind that carries the object's
// local state and vector, read in one hold — a create adds its class and
// placement — and returns the replica's table entry and placement; bump
// advances the vector first. The entity's map is shipped as it is: remote
// applies and history entries read it after the transaction's lock is gone,
// and the entity's next Set copies.
func (m *Manager) localOp(id object.ID, kind opKind, bump bool, dst *batchOp) (*replicaState, Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.meta[id]
	if !ok {
		return nil, Info{}, fmt.Errorf("%w: %s", ErrUnknownObject, id)
	}
	e := rs.e
	if e == nil {
		return nil, Info{}, fmt.Errorf("replication: local state of %s: %w", id, object.ErrNotFound)
	}
	if bump {
		rs.vv = rs.vv.Bumped(m.self)
		if kind == opCreate {
			rs.placed = rs.vv // the placement is set at the create's vector
		}
	}
	*dst = batchOp{Kind: kind, ID: id, VV: rs.vv}
	dst.State, dst.Version = e.Share()
	if kind == opCreate {
		dst.Class, dst.Info = e.Class(), rs.info
	}
	return rs, rs.info, nil
}

// deleteDests computes the destinations and replica count of a delete, whose
// replica set is already gone from meta: every view member under full
// replication, the ring-derived group (which any node can recompute) under
// sharded placement.
func (m *Manager) deleteDests(id object.ID, view group.View) ([]transport.NodeID, int) {
	if m.placement == nil {
		return view.Members, len(view.Members)
	}
	info := m.placedInfo(id, "")
	return info.reachableReplicas(view), len(info.Replicas)
}

// stageDelete returns the staged delete carrying the deleted object's
// tombstone vector; ship is false when the tombstone is already gone
// (nothing to send, and no record to drop).
func (m *Manager) stageDelete(id object.ID, view group.View) (s stagedOp, ship bool) {
	m.mu.Lock()
	vv, ok := m.tombstones[id]
	m.mu.Unlock()
	if !ok {
		return stagedOp{}, false
	}
	dests, replicas := m.deleteDests(id, view)
	return stagedOp{op: batchOp{Kind: opDelete, ID: id, VV: vv}, dests: dests, replicas: replicas}, true
}

// WaitPropagation blocks until every background straggler send of earlier
// threshold commits has drained. Under any protocol but Quorum it returns
// immediately. Shutdown paths and tests that assert replica convergence
// right after a quorum commit must call it first: a threshold commit only
// guarantees the quorum, the remaining replicas are still being written.
func (m *Manager) WaitPropagation() { m.propagation.Wait() }

// recordHistory keeps a degraded write's state in the replica's history and
// appends to records its entry: the update that installs it, keyed by object
// and version.
func (m *Manager) recordHistory(id object.ID, op *batchOp, records *[]persistence.Change) {
	m.mu.Lock()
	if rs, ok := m.meta[id]; ok {
		rs.history = append(rs.history, HistoryEntry{State: op.State, Version: op.Version, VV: op.VV})
	}
	m.mu.Unlock()
	key := string(id) + "#" + strconv.FormatInt(op.Version, 10)
	*records = append(*records, persistence.Change{Table: tableHistory, Key: key, Value: &batchOp{Kind: opApply, ID: id, State: op.State, Version: op.Version, VV: op.VV}})
}

// PropagateState force-propagates the current local replica state to all
// reachable replicas with a freshly dominating version vector. The
// reconciliation phase uses this to install rolled-back or repaired states
// system-wide (§3.3).
func (m *Manager) PropagateState(ctx context.Context, id object.ID) error {
	out := repairs{m: m}
	var records []persistence.Change
	if err := m.stageState(id, &out, &records); err != nil {
		return err
	}
	if err := m.store.Write(records); err != nil {
		return err
	}
	_ = out.flush(ctx) // non-fatal and counted, as a commit's: see commitRound.Answered
	return nil
}

// stageState stages, for every other reachable replica, the create that
// installs the current local state and placement over everything this node
// has seen: its vector, bumped, dominates whatever the replica holds of the
// object, and the placement is set again at it (a conflict between two
// incarnations leaves one placement). The replica's record goes in records.
func (m *Manager) stageState(id object.ID, out *repairs, records *[]persistence.Change) error {
	var op batchOp
	rs, info, err := m.localOp(id, opCreate, true, &op)
	if err != nil {
		return err
	}
	*records = append(*records, persistence.Change{Table: tableReplicaMeta, Key: string(id), Value: rs})
	to := info.reachableReplicas(m.view())
	for i := range to {
		if to[i] != m.self {
			out.stage(to[i:i+1], op)
		}
	}
	return nil
}

// --- message handlers (executed on the receiving node) ---

// handleBatch applies one transaction batch, or the batches a peer's sender
// coalesced, stores the replica records they changed and the threat change
// it carries in one write, and acks: with ackAll when every op landed,
// which allocates nothing, and otherwise with each op's result.
func (m *Manager) handleBatch(from transport.NodeID, payload any) (any, error) {
	var th *threatBatch
	var ops []batchOp
	var parts []*batchMsg
	switch b := payload.(type) {
	case *batchMsg:
		ops = b.Ops
	case *threatBatch:
		th, ops = b, b.Ops
	case *coalescedBatch:
		parts = b.Parts
	default:
		return nil, fmt.Errorf("replication: bad batch payload %T", payload)
	}
	var buf [8]opResult // a write's batch fits
	// So do its records, with a threat's three; a coalesced batch's, and a
	// batch's with more threat changes, come from recordsPool.
	var rbuf [8]persistence.Change
	records, rp, n := rbuf[:0], (*[]persistence.Change)(nil), len(ops)
	for _, p := range parts {
		n += len(p.Ops)
	}
	if th != nil {
		n += 3 * (len(th.Added) + len(th.Removed))
	}
	if n > len(rbuf) {
		rp = getRecords(n)
		records = *rp
	}
	res, records, err := m.applyOps(ops, buf[:0], records, nil)
	for _, p := range parts {
		if err == nil {
			res, records, err = m.applyOps(p.Ops, res, records, nil)
		}
	}
	// What the batch changed is stored in one write before the ack, threats
	// included unless an op failed.
	if err == nil && th != nil && m.threats != nil {
		err = m.threats.Replicate(th.Delta, records)
	} else if serr := m.store.Write(records); err == nil {
		err = serr
	}
	if rp != nil {
		putRecords(rp, len(records))
	}
	if err != nil {
		return nil, err
	}
	skipped := 0
	for _, c := range res {
		if !c.landed() {
			skipped++
		}
	}
	if skipped == 0 {
		return ackAll, nil
	}
	m.batchSkipped.Add(int64(skipped))
	return &batchAck{Results: append([]opResult(nil), res...)}, nil
}

// ApplyForwarded applies the batch a coordinator handed back in its reply to
// an invocation this node forwarded (Forwarded.Apply) through handleBatch, as
// if the commit's round had sent it. A batch that does not apply counts in
// replication.propagation_errors, as the round's failed send would have;
// reconciliation repairs the replica.
func (m *Manager) ApplyForwarded(from transport.NodeID, apply any) {
	if _, err := m.handleBatch(from, apply); err != nil {
		m.propErrors.Inc()
	}
}

// decision is what one incoming op does to a replica (decide). The effect is
// the op the replica carries out on itself — a create, an apply (install) or
// a delete (bury) — or none.
type decision struct {
	eff  opKind
	vv   VersionVector // the vector the replica holds after it
	res  opResult
	owed opKind // what the replica owes the op's sender when newer or of another incarnation: opApply (its state), opDelete (its tombstone) or none
}

// decide is the one rule of what an op does to a replica that holds have —
// nothing, a live replica (opApply) or a tombstone (opDelete) — at vector
// local: a shipped op (applyOps) and a pulled record (mergeRecords, as the
// create or delete it would ship) meet it and nothing else. A deletion is an
// event of its own (Delete bumps the vector), so a re-create after it and a
// write it never saw can be told apart:
//   - an op the replica's vector or tombstone covers is a duplicate, and a
//     strictly newer replica is owed to the sender;
//   - a strictly newer op wins: a delete buries the replica, a live op
//     installs, or creates over a tombstone (a re-create);
//   - two concurrent live sides are concurrent: reconciliation's conflict;
//   - a deletion wins over a concurrent side that shares an event with it,
//     with both vectors merged. A live side that shares none is another
//     incarnation of the ID, created where the deletion was never seen: a
//     create is created under the merged vector, a live replica skips the
//     delete, and either is owed to the sender;
//   - an absent object is created or buried. An apply whose create the
//     replica lacks — absent, or newer than its tombstone — is unknown.
func decide(have opKind, local VersionVector, kind opKind, vv VersionVector) decision {
	if have == 0 {
		if kind == opApply {
			return decision{res: opUnknown}
		}
		return decision{eff: kind, vv: vv}
	}
	cmp, comparable := vv.Compare(local)
	switch {
	case comparable && cmp < 0:
		return decision{vv: local, res: opDuplicate, owed: have}
	case comparable && cmp == 0:
		return decision{vv: local, res: opDuplicate}
	case comparable && kind == opDelete:
		return decision{eff: opDelete, vv: vv}
	case comparable && have == opApply:
		return decision{eff: opApply, vv: vv}
	case comparable && kind == opCreate:
		return decision{eff: opCreate, vv: vv}
	case comparable:
		return decision{res: opUnknown}
	case kind != opDelete && have != opDelete:
		return decision{res: opConcurrent}
	}
	// A deletion and a concurrent side: a node both count is counted once in
	// the merged vector, so its total falls short of the two when they share
	// an event.
	merged := vv.Merged(local)
	switch {
	case kind == have || merged.Total() < vv.Total()+local.Total():
		return decision{eff: opDelete, vv: merged, owed: opDelete}
	case kind == opCreate:
		return decision{eff: opCreate, vv: merged, owed: opApply}
	case kind == opDelete:
		return decision{vv: local, res: opConcurrent, owed: opApply}
	}
	return decision{res: opUnknown}
}

// decideLocked decides the op against what the replica holds of its object;
// callers hold m.mu.
func (m *Manager) decideLocked(op *batchOp) decision {
	if rs, ok := m.meta[op.ID]; ok {
		return decide(opApply, rs.vv, op.Kind, op.VV)
	}
	if tomb, ok := m.tombstones[op.ID]; ok {
		return decide(opDelete, tomb, op.Kind, op.VV)
	}
	return decide(0, nil, op.Kind, op.VV)
}

// applyOps is the one place a replica carries out what decide says shipped
// operations do — create, install, skip or tombstone: the ops are validated
// before anything mutates (a malformed op rejects them all with no state
// change), and then everything a reader or a reconcile pull can see changes
// under a single hold of the replica lock — each op's decision, the entity
// install, a create's placement (placeLocked), the registry entry of a new or
// deleted object — so a vector never says "current" over a state that is not,
// two batches for one object install in the order of their vectors, and a
// pull sees a batch's states and vectors all-or-nothing. An install's
// estimator observation follows the unlock, and so does, in the caller, the
// store write (which charges simulated time) of the record change each op
// owes — the replica's record, or its deletion — which applyOps appends to
// records: the caller stores what one unit of work changed in one write. An
// op the replica already covers changes nothing but, for a create, the
// placement, so a redelivered batch is harmless. Each op's result is
// appended to res; the caller sizes both lists (stack arrays hold a write's
// batch). A one-op caller that merges a pulled record passes pulled: the
// vector the record's placement was set at goes in, the decision comes out.
func (m *Manager) applyOps(ops []batchOp, res []opResult, records []persistence.Change, pulled *merge) ([]opResult, []persistence.Change, error) {
	for i := range ops {
		if op := &ops[i]; !op.Kind.known() {
			return nil, records, fmt.Errorf("replication: bad batch op kind %d for %s", op.Kind, op.ID)
		} else if !op.State.Sorted() {
			return nil, records, fmt.Errorf("replication: attributes of %s not in name order", op.ID)
		}
	}
	// Per op, the effect whose record change is due after the unlock and the
	// replica whose record it writes: a burial that dropped no replica and a
	// create that failed have none. A write's batch fits the stack-backed
	// array.
	var buf [8]storeWrite
	due := buf[:0]
	var errs []error
	m.mu.Lock()
	for i := range ops {
		op := &ops[i]
		d := m.decideLocked(op)
		w := storeWrite{eff: d.eff}
		placed := op.VV // a create's placement is set at its own vector
		if pulled != nil {
			placed = pulled.placed
		}
		switch w.eff {
		case opApply:
			w.rs = m.meta[op.ID]
			w.rs.vv = d.vv
			if op.Kind == opCreate {
				m.placeLocked(w.rs, op, placed)
			}
			if err := m.installLocked(w.rs, op); err != nil {
				errs = append(errs, err)
			}
		case opCreate:
			if tomb, buried := m.tombstones[op.ID]; buried {
				// Over another incarnation's tombstone the placement is set
				// after the deletion it outlives too.
				if cmp, comparable := tomb.Compare(placed); !comparable || cmp > 0 {
					placed = placed.Merged(tomb)
				}
				delete(m.tombstones, op.ID)
			}
			w.rs = m.newReplica(op.ID, nil, op.Info, d.vv)
			w.rs.placed = placed
			m.meta[op.ID] = w.rs
			if err := m.installLocked(w.rs, op); err != nil {
				errs = append(errs, err)
				w.eff = 0
			}
		case 0:
			// A create that installs no state may still bring a newer
			// placement: one whose state a later write overtook.
			if rs, live := m.meta[op.ID]; live && op.Kind == opCreate && m.placeLocked(rs, op, placed) {
				w.eff, w.rs = opCreate, rs
			}
		case opDelete:
			if _, dropped := m.meta[op.ID]; dropped {
				delete(m.meta, op.ID)
				_ = m.registry.Remove(op.ID)
			} else {
				w.eff = 0 // no replica, so no stored record to drop
			}
			m.tombstones[op.ID] = d.vv
		}
		if pulled != nil {
			pulled.d = d
		}
		due = append(due, w)
		res = append(res, d.res)
	}
	m.mu.Unlock()
	for i, w := range due {
		// Backups persist the replica too (update applied within the
		// primary's transaction in the prototype, §4.3).
		c := persistence.Change{Table: tableReplicaMeta, Key: string(ops[i].ID), Value: w.rs}
		switch w.eff {
		case 0:
			continue
		case opDelete:
			c.Value, c.Delete = nil, true
		case opApply:
			m.observe(ops[i].ID)
		}
		records = append(records, c)
	}
	return res, records, errors.Join(errs...)
}

// storeWrite is the record change one op of a batch owes after the unlock:
// its effect, and the replica whose record it writes.
type storeWrite struct {
	eff opKind
	rs  *replicaState
}

// merge is a pulled record's passage through applyOps (mergeRecords): the
// vector the record's placement was set at goes in, the decision comes out.
type merge struct {
	placed VersionVector
	d      decision
}

// placeLocked gives a live replica the placement of a create, and its class
// if that differs, when the create's placement was set at a vector newer than
// the replica's own: the create is of a later incarnation of the object,
// re-created after a delete the replica may never have seen, and a replica
// holds the placement of the newest incarnation it knows of, whatever the
// order that told it. A placement that no longer names this node drops the
// entity, and another class takes over its state in an entity of its own; an
// entity a placement newly names this node for comes with an install
// (installLocked). A record of a metadata-only holder names no class. It
// reports whether placement or class changed; callers hold m.mu.
func (m *Manager) placeLocked(rs *replicaState, op *batchOp, placed VersionVector) bool {
	if cmp, comparable := placed.Compare(rs.placed); !comparable || cmp <= 0 {
		return false
	}
	rs.placed = placed
	changed := rs.info.Home != op.Info.Home || !slices.Equal(rs.info.Replicas, op.Info.Replicas)
	rs.info = op.Info
	switch {
	case rs.e == nil:
	case !rs.info.HasReplica(m.self):
		_ = m.registry.Remove(op.ID)
		rs.e, changed = nil, true
	case op.Class != "" && op.Class != rs.e.Class():
		e := object.New(op.Class, op.ID, nil)
		e.Restore(rs.e.Share())
		_ = m.registry.Remove(op.ID)
		_ = m.registry.Add(e) // the ID was removed a line above
		rs.e, changed = e, true
	}
	return changed
}

// installLocked hands a shipped state and its version to the replica's
// entity — a create adds one of its class when the placement names this node
// and the replica hosts none; a metadata-only holder installs nothing.
// Callers hold m.mu, which is what orders one object's installs like their
// vectors. A re-create restarts the version, so the replica takes the shipped
// one as it is.
func (m *Manager) installLocked(rs *replicaState, op *batchOp) error {
	if rs.e != nil {
		rs.e.Restore(op.State, op.Version)
		return nil
	}
	if op.Kind != opCreate || !rs.info.HasReplica(m.self) {
		return nil
	}
	// Restored before it is registered: a registry reader never sees it empty.
	e := object.New(op.Class, op.ID, nil)
	e.Restore(op.State, op.Version)
	if err := m.registry.Add(e); err != nil {
		return fmt.Errorf("replication: batch create: %w", err)
	}
	rs.e = e
	return nil
}

func (m *Manager) handleFetch(from transport.NodeID, payload any) (any, error) {
	id, ok := payload.(object.ID)
	if !ok {
		return nil, fmt.Errorf("replication: bad fetch payload %T", payload)
	}
	e, err := m.registry.Get(id)
	if err != nil {
		return nil, fmt.Errorf("replication: fetch %s: %w", id, err)
	}
	// State, version and the metadata the staleness verdict comes from are
	// read in one hold: no install comes between them.
	m.mu.Lock()
	rs, known := m.meta[id]
	var info Info
	if known {
		info = rs.info
	}
	state, version := e.Share()
	m.mu.Unlock()
	view := m.viewFor(info)
	stale := known && replicaUnreachable(info, view) && m.protocol.PossiblyStale(info, view, m.weightFor(info))
	return fetchReply{Class: e.Class(), State: state, Version: version, Stale: stale}, nil
}

// recordLocked builds the record of one live replica or tombstone, as a
// pull reply carries it; callers hold m.mu. A replica without a local entity
// (a non-hosting metadata holder) exports metadata only.
func (m *Manager) recordLocked(id object.ID) Record {
	rs, live := m.meta[id]
	if !live {
		return Record{ID: id, VV: m.tombstones[id], Deleted: true}
	}
	rec := Record{ID: id, VV: rs.vv, Info: rs.info, Placed: rs.placed}
	rec.History = append(rec.History, rs.history...)
	if rs.e != nil {
		rec.Class = rs.e.Class()
		rec.State, rec.Version = rs.e.Share()
	}
	return rec
}
