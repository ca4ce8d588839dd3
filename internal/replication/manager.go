package replication

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

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
// alike: Kind says which of the fields it carries. The coordinator stores a
// create as its replica record, so the fields after Kind are the record's, in
// its order.
type batchOp struct {
	Kind    opKind `json:"-"`
	ID      object.ID
	Class   string
	State   object.State
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

// threatBatch is the repl.batch of a transaction that accepted or cleared
// threats (§5.1). It rides gob: threat fields on batchMsg would grow every
// decoded batch, and embedding batchMsg would lend it a form without them.
type threatBatch struct {
	Ops     []batchOp
	Added   []threat.Threat
	Removed []string
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
	State   object.State
	Version int64
	Stale   bool
}

// Record is the full replica descriptor exchanged during reconciliation.
type Record struct {
	ID      object.ID
	Class   string
	State   object.State
	Version int64
	VV      VersionVector
	Info    Info
	History []HistoryEntry
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
	pullParallel *obs.Counter // reconciliation passes that pulled >1 peer concurrently
	quorumRounds *obs.Counter // commit rounds shipped with threshold-return semantics
	quorumShort  *obs.Counter // threshold rounds that fell short of the quorum

	// propagation tracks in-flight background straggler sends of threshold
	// commits; WaitPropagation joins them.
	propagation sync.WaitGroup

	mu         sync.Mutex
	meta       map[object.ID]*replicaState
	tombstones map[object.ID]VersionVector
	estimator  Estimator
	observer   func(object.ID)
}

type replicaState struct {
	info    Info
	vv      VersionVector
	history []HistoryEntry
}

// stagedOp is one staged batch operation awaiting its round (route): a
// commit's, or a reconciliation pass's, whose ops have one destination each.
type stagedOp struct {
	op       batchOp
	dests    []transport.NodeID
	replicas int   // full replica count, the quorum denominator
	remote   int32 // dests without this node, counted by route
}

// stagedPool recycles the staging buffer of commitBatched; the buffer never
// escapes the commit (background straggler sends hold the commit's round and
// its copy of the ops, not the staging slice).
var stagedPool = sync.Pool{New: func() any { return new([]stagedOp) }}

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
	m.pullParallel = m.obs.Counter("reconcile.pull.concurrent")
	m.quorumRounds = m.obs.Counter("replication.quorum.rounds")
	m.quorumShort = m.obs.Counter("replication.quorum.short")
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

// Protocol returns the active replica-control protocol.
func (m *Manager) Protocol() Protocol { return m.protocol }

// SetEstimator installs a staleness estimator.
func (m *Manager) SetEstimator(e Estimator) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e != nil {
		m.estimator = e
	}
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

// Placement returns the sharding ring, nil under full replication.
func (m *Manager) Placement() *placement.Ring { return m.placement }

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
	defer m.mu.Unlock()
	for _, rs := range m.meta {
		rs.history = nil
	}
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

// Lookup resolves an object for reading, preferring the local replica (reads
// are always local under P4, §4.3). For objects without a local replica the
// state is fetched from a reachable replica. The returned staleness reflects
// the protocol's judgement in the current view.
func (m *Manager) Lookup(ctx context.Context, id object.ID) (*object.Entity, constraint.Staleness, error) {
	m.mu.Lock()
	rs, known := m.meta[id]
	var info Info
	if known {
		info = rs.info
	}
	est := m.estimator
	m.mu.Unlock()
	if !known {
		// Under sharded placement a node outside the object's group holds no
		// metadata; the ring supplies it so the read can be fetched from the
		// group. A group member without metadata has genuinely never seen the
		// object.
		if m.placement == nil {
			return nil, constraint.Staleness{}, fmt.Errorf("%w: %s", ErrUnknownObject, id)
		}
		info = m.placedInfo(id, "")
		if info.HasReplica(m.self) {
			return nil, constraint.Staleness{}, fmt.Errorf("%w: %s", ErrUnknownObject, id)
		}
	}
	view := m.viewFor(info)
	stale := m.protocol.PossiblyStale(info, view)
	if info.HasReplica(m.self) {
		e, err := m.registry.Get(id)
		if err != nil {
			return nil, constraint.Staleness{}, fmt.Errorf("replication: local replica of %s: %w", id, err)
		}
		v := e.Version()
		st := constraint.Staleness{PossiblyStale: stale, Version: v, EstimatedLatest: v}
		if stale {
			st.EstimatedLatest = est(id, v)
		}
		return e, st, nil
	}
	// Remote read from the first reachable replica.
	for _, r := range info.Replicas {
		if !view.Contains(r) {
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
			st.EstimatedLatest = est(id, fr.Version)
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

// Objects returns all object IDs known to this node's replication metadata.
func (m *Manager) Objects() []object.ID {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]object.ID, 0, len(m.meta))
	for id := range m.meta {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
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
	if info.HasReplica(m.self) {
		if err := m.registry.Add(e); err != nil {
			return fmt.Errorf("replication: create %s: %w", id, err)
		}
		t.RecordCreate(m.registry, id)
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
	m.meta[id] = &replicaState{info: info, vv: vv}
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
	vv := rs.vv
	delete(m.meta, id)
	// The deletion is an event: a re-create after it and a write it never
	// saw then reach vectors that tell them apart (decide).
	m.tombstones[id] = vv.Bumped(m.self)
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
		m.meta[id] = &replicaState{info: info, vv: vv}
		delete(m.tombstones, id)
		m.mu.Unlock()
	})
	return nil
}

// Prepare implements tx.Resource; propagation happens at commit.
func (m *Manager) Prepare(t *tx.Tx) error { return nil }

// Commit implements tx.Resource: synchronous update propagation from the
// coordinator to all reachable replicas, persistence of replica metadata,
// and degraded-mode history recording. The transaction's write set (in
// first-touch order) becomes one batch per destination, shipped in a single
// concurrent multicast round: a K-object commit costs ~1 simulated network
// hop instead of ~K. Sender-side bookkeeping — version-vector bumps, replica
// metadata persistence, degraded-mode history, estimator observation —
// happens per object while staging. Per-object preparation failures are
// joined into the returned error and counted, together with per-destination
// send failures, in replication.propagation_errors. A transaction that wrote
// nothing takes no lock and reads no view.
func (m *Manager) Commit(t *tx.Tx) error {
	var (
		sp       *[]stagedOp
		staged   []stagedOp
		view     group.View
		degraded bool
		writes   int64
		errs     []error
	)
	t.Writes(func(w tx.Write) {
		if sp == nil {
			sp = stagedPool.Get().(*[]stagedOp)
			staged = (*sp)[:0]
			view, degraded = m.view(), m.Degraded()
		}
		writes++
		staged = append(staged, stagedOp{})
		ship, err := m.stage(w, view, degraded, &staged[len(staged)-1])
		if err != nil {
			m.propErrors.Inc()
			errs = append(errs, fmt.Errorf("%s: %w", w.ID, err))
		}
		if !ship {
			staged = staged[:len(staged)-1]
		}
	})
	if sp == nil {
		return nil
	}
	m.propagations.Add(writes)
	if len(staged) > 0 {
		if err := m.commitBatched(t, staged); err != nil {
			errs = append(errs, err)
		}
	}
	// The staging buffer never escapes the commit (background straggler sends
	// hold the per-destination batches), so it can be reused.
	clear(staged) // drop op payload references before pooling
	*sp = staged[:0]
	stagedPool.Put(sp)
	return errors.Join(errs...)
}

// stage does the coordinator's bookkeeping for one entry of the write set and
// puts the operation to ship in s, its slot in the staging buffer; ship is
// false when there is none.
func (m *Manager) stage(w tx.Write, view group.View, degraded bool, s *stagedOp) (ship bool, err error) {
	switch w.Kind {
	case tx.Deleted:
		*s, ship = m.stageDelete(w.ID, view)
		return ship, nil
	case tx.Created:
		if rc, remote := w.Payload.(remoteCreate); remote {
			*s = m.stageCreateRemote(rc, view)
			return true, nil
		}
		err = m.stageLocal(w.ID, opCreate, view, degraded, s)
	default:
		err = m.stageLocal(w.ID, opApply, view, degraded, s)
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
// one route builds, with the threats t accepted and cleared. The requester of
// a forwarded commit gets its message in the reply instead (replyTo).
func (m *Manager) commitBatched(t *tx.Tx, staged []stagedOp) error {
	fw, _ := t.Context().(*Forwarded)
	requester := m.replyTo(fw, staged)
	r, uniform := m.route(nil, staged, requester)
	if r == nil && requester == "" {
		return nil
	}
	added, _ := t.Value(threat.KeyAccepted).([]threat.Threat)
	removed, _ := t.Value(threat.KeyCleared).([]string)
	threats := len(added) > 0 || len(removed) > 0
	if r == nil {
		// The requester was the only remote destination: the reply is the
		// commit's one message, and its one-op batch takes the round's place.
		one := &oneOpBatch{op: [1]batchOp{staged[0].op}}
		one.Ops = one.op[:]
		fw.Apply = &one.batchMsg
		if threats {
			fw.Apply = &threatBatch{Ops: one.Ops, Added: added, Removed: removed}
			t.Put(threat.KeyShipped, []transport.NodeID{requester})
		}
		return nil
	}
	if tp, isThreshold := m.protocol.(ThresholdPolicy); isThreshold {
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
			t := tally{missing: min(int32(tp.CommitAcks(s.replicas))-1, s.remote), open: s.remote}
			if t.missing <= 0 {
				continue
			}
			r.Until = group.OnVerdict
			switch {
			case !uniform:
				if r.objects == nil {
					r.objects = make([]objectAcks, 0, len(staged)-k)
				}
				r.objects = append(r.objects, objectAcks{id: s.op.ID, tally: t})
			case t.missing > r.all.missing:
				r.all = t // shared destinations: the strictest object decides
			}
		}
	}
	if threats {
		r.threats = &threatBatch{Ops: r.shared.Ops, Added: added, Removed: removed}
		shipped := r.To
		if requester != "" {
			shipped = append(slices.Clip(shipped), requester)
		}
		t.Put(threat.KeyShipped, shipped) // the CCMgr's commit tells the rest of the view
	}
	if requester != "" {
		fw.Apply = r.Payload(0) // one op: every destination is sent the same message
	}
	m.batchRounds.Inc()
	m.batchSize.Add(int64(len(staged)))
	m.propagation.Add(1)
	err := m.comm.Run(t.Context(), &r.Round, r)
	if r.threats != nil {
		r.Wait() // as the threat multicast this replaces did, after an early release too
	}
	if err != nil {
		m.quorumShort.Inc()
		m.propErrors.Inc()
		return fmt.Errorf("replication: quorum commit: %w", err)
	}
	return nil
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
	// Otherwise the batches are contiguous runs of one backing array. Nothing
	// writes to either after this block. A one-op commit is always uniform,
	// and its run was allocated with the round.
	uniform = total == len(staged)*len(r.To)
	if uniform {
		if r.shared.Ops == nil {
			r.shared.Ops = make([]batchOp, len(staged))
		}
		for k := range staged {
			r.shared.Ops[k] = staged[k].op
		}
	} else {
		r.batches = make([]batchMsg, len(r.To))
		ops := make([]batchOp, 0, total)
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
	return r, uniform
}

// replyTo names the requester of a forwarded commit when its batch can ride
// the invocation's reply: the commit ships one op (a forwarded invocation
// writes its target alone), the requester is one of its destinations, and
// under a threshold protocol the other destinations can still make the
// quorum — the commit returns before the reply lands, so the requester's
// apply cannot be one of its acks. Otherwise it names nobody.
func (m *Manager) replyTo(fw *Forwarded, staged []stagedOp) transport.NodeID {
	if fw == nil || len(staged) != 1 || !slices.Contains(staged[0].dests, fw.Requester) {
		return ""
	}
	if tp, isThreshold := m.protocol.(ThresholdPolicy); isThreshold {
		s := &staged[0]
		others := len(s.dests) - 1 // remote destinations but the requester
		if slices.Contains(s.dests, m.self) {
			others--
		}
		if tp.CommitAcks(s.replicas)-1 > others {
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
// destination is sent, and when the commit may return. It is the commit's
// one allocation besides the ops — and a one-op commit's only one, its op
// living beside it in a oneOpRound; the background straggler sends hold it,
// so it is never recycled (the staging buffer, which it does not reference,
// is). A reconciliation's repairs leave in one too (repairRound).
type commitRound struct {
	group.Round
	m *Manager
	// shared is what every destination is sent when all of them replicate
	// every object of the batch; batches, one per destination, is set
	// otherwise.
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
	room    [3]transport.NodeID // To's backing, up to a replica group's usual remotes
}

// oneOpRound is the round of a commit that ships one op, with the op's run
// in the same block: 416 bytes, less than the round and a separate one-op run
// took in two.
type oneOpRound struct {
	commitRound
	op [1]batchOp
}

// newCommitRound allocates the round of a commit staging n ops; a one-op
// round comes with its shared run.
func newCommitRound(m *Manager, n int) *commitRound {
	if n != 1 {
		return new(commitRound).init(m)
	}
	one := new(oneOpRound)
	one.shared.Ops = one.op[:]
	return one.init(m)
}

// init makes r a round of m's repl.batch with no destination yet.
func (r *commitRound) init(m *Manager) *commitRound {
	r.m, r.From, r.Kind, r.To = m, m.self, msgBatch, r.room[:0]
	return r
}

// Payload implements group.Owner.
func (r *commitRound) Payload(i int) any {
	switch {
	case r.threats == nil && r.batches == nil:
		return &r.shared
	case r.threats == nil:
		return &r.batches[i]
	case r.batches == nil:
		return r.threats
	}
	return &threatBatch{Ops: r.batches[i].Ops, Added: r.threats.Added, Removed: r.threats.Removed}
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
	if r.objects == nil {
		acked := ack != nil
		for k := range r.shared.Ops {
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
// straggler's, after a threshold return — has finished.
func (r *commitRound) Drained() { r.m.propagation.Done() }

// stageLocal does the coordinator's bookkeeping for an object the
// transaction created or updated — version-vector bump, persisted record,
// degraded-mode history — and stages the op in s, where its store write
// points. A create's record is the whole op (JNDI name, primary key and the
// serialized creation request in the prototype, §5.1), an apply's its vector;
// an apply is also observed by the estimator.
func (m *Manager) stageLocal(id object.ID, kind opKind, view group.View, degraded bool, s *stagedOp) error {
	info, err := m.localOp(id, kind, true, &s.op)
	if err != nil {
		return err
	}
	s.dests, s.replicas = info.reachableReplicas(view), len(info.Replicas)
	op := &s.op
	var record any = &op.VV
	if kind == opCreate {
		record = op
	}
	if err := m.store.Put(tableReplicaMeta, string(id), record); err != nil {
		return err
	}
	m.recordHistory(id, op.State, op.Version, op.VV, m.effectiveDegraded(info, degraded))
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
// placement — and returns the placement; bump advances the vector first. The
// entity's map is shipped as it is: remote applies and history entries read
// it after the transaction's lock is gone, and the entity's next Set copies.
func (m *Manager) localOp(id object.ID, kind opKind, bump bool, dst *batchOp) (Info, error) {
	e, err := m.registry.Get(id)
	if err != nil {
		return Info{}, fmt.Errorf("replication: local state of %s: %w", id, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.meta[id]
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrUnknownObject, id)
	}
	if bump {
		rs.vv = rs.vv.Bumped(m.self)
	}
	*dst = batchOp{Kind: kind, ID: id, VV: rs.vv}
	dst.State, dst.Version = e.Share()
	if kind == opCreate {
		dst.Class, dst.Info = e.Class(), rs.info
	}
	return rs.info, nil
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

// stageDelete drops the deleted object's persisted metadata and returns the
// staged delete carrying its tombstone vector; ship is false when the
// tombstone is already gone (nothing to send).
func (m *Manager) stageDelete(id object.ID, view group.View) (s stagedOp, ship bool) {
	m.mu.Lock()
	vv, ok := m.tombstones[id]
	m.mu.Unlock()
	if !ok {
		return stagedOp{}, false
	}
	m.store.Delete(tableReplicaMeta, string(id))
	dests, replicas := m.deleteDests(id, view)
	return stagedOp{op: batchOp{Kind: opDelete, ID: id, VV: vv}, dests: dests, replicas: replicas}, true
}

// WaitPropagation blocks until every background straggler send of earlier
// threshold commits has drained. Under a non-threshold protocol it returns
// immediately. Shutdown paths and tests that assert replica convergence
// right after a quorum commit must call it first: a threshold commit only
// guarantees the quorum, the remaining replicas are still being written.
func (m *Manager) WaitPropagation() { m.propagation.Wait() }

// Rollback implements tx.Resource: Create and Delete registered their own
// compensations in the undo log, and nothing else is kept per transaction.
func (m *Manager) Rollback(t *tx.Tx) error { return nil }

func (m *Manager) recordHistory(id object.ID, st object.State, version int64, vv VersionVector, degraded bool) {
	if !degraded || !m.keepHistory {
		return
	}
	entry := HistoryEntry{State: st, Version: version, VV: vv}
	m.mu.Lock()
	if rs, ok := m.meta[id]; ok {
		rs.history = append(rs.history, entry)
	}
	m.mu.Unlock()
	_ = m.store.Put(tableHistory, string(id)+"#"+strconv.FormatInt(version, 10), entry)
}

// PropagateState force-propagates the current local replica state to all
// reachable replicas with a freshly dominating version vector. The
// reconciliation phase uses this to install rolled-back or repaired states
// system-wide (§3.3).
func (m *Manager) PropagateState(ctx context.Context, id object.ID) error {
	out := repairs{m: m}
	if err := m.stageState(id, &out); err != nil {
		return err
	}
	_ = out.flush(ctx) // non-fatal and counted, as a commit's: see commitRound.Answered
	return nil
}

// stageState stages, for every other reachable replica, the apply that
// installs the current local state over everything this node has seen.
func (m *Manager) stageState(id object.ID, out *repairs) error {
	var op batchOp
	info, err := m.localOp(id, opApply, true, &op)
	if err != nil {
		return err
	}
	if err := m.store.Put(tableReplicaMeta, string(id), &op.VV); err != nil {
		return err
	}
	to := info.reachableReplicas(m.view())
	for i := range to {
		if to[i] != m.self {
			out.stage(to[i:i+1], op)
		}
	}
	return nil
}

// --- message handlers (executed on the receiving node) ---

// handleBatch applies one transaction batch, stores its threats, and acks:
// with ackAll when every op landed, which allocates nothing, and otherwise
// with each op's result.
func (m *Manager) handleBatch(from transport.NodeID, payload any) (any, error) {
	var th *threatBatch
	var ops []batchOp
	switch b := payload.(type) {
	case *batchMsg:
		ops = b.Ops
	case *threatBatch:
		th, ops = b, b.Ops
	default:
		return nil, fmt.Errorf("replication: bad batch payload %T", payload)
	}
	var buf [8]opResult // a write's batch fits
	res, err := m.applyOps(ops, buf[:0], nil)
	if err == nil && th != nil && m.threats != nil {
		err = m.threats.Replicate(th.Removed, th.Added)
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
// local: a shipped op (applyOps), a pulled record (mergeRecords, as the create
// it would ship) and a gossiped tombstone (AdoptTombstone) meet it and nothing
// else. A deletion is an event of its own (Delete bumps the vector), so a
// re-create after it and a write it never saw can be told apart:
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
// install, the registry entry of a new or deleted object — so a vector never
// says "current" over a state that is not, two batches for one object install
// in the order of their vectors, and a pull sees a batch's states and vectors
// all-or-nothing. What must not run under a node-wide mutex follows the
// unlock: the replica-meta store write (which charges simulated time) and an
// install's estimator observation. An op the replica already covers changes
// nothing, so a redelivered batch is harmless. Each op's result is appended to
// res, which the caller sizes (a stack array holds a write's batch); when last
// is not nil it receives the last op's decision, which a one-op caller reads.
func (m *Manager) applyOps(ops []batchOp, res []opResult, last *decision) ([]opResult, error) {
	for i := range ops {
		if op := &ops[i]; !op.Kind.known() {
			return nil, fmt.Errorf("replication: bad batch op kind %d for %s", op.Kind, op.ID)
		}
	}
	// Per op, the effect whose store write is due after the unlock: a burial
	// that dropped no replica and a create that failed have none. A write's
	// batch fits the stack-backed array.
	var buf [8]opKind
	due := buf[:0]
	var own []VersionVector // per op, the vector a create over another incarnation's tombstone stores
	var errs []error
	m.mu.Lock()
	for i := range ops {
		op := &ops[i]
		d := m.decideLocked(op)
		eff := d.eff
		switch eff {
		case opApply:
			m.meta[op.ID].vv = d.vv
			m.installLocked(op.ID, op.State, op.Version)
		case opCreate:
			m.meta[op.ID] = &replicaState{info: op.Info, vv: d.vv}
			delete(m.tombstones, op.ID)
			if d.owed == opApply {
				if own == nil {
					own = make([]VersionVector, len(ops))
				}
				own[i] = d.vv
			}
			if op.Info.HasReplica(m.self) {
				e := object.New(op.Class, op.ID, nil)
				e.Restore(op.State, op.Version)
				if err := m.registry.Add(e); err != nil {
					errs = append(errs, fmt.Errorf("replication: batch create: %w", err))
					eff = 0
				}
			}
		case opDelete:
			if _, dropped := m.meta[op.ID]; dropped {
				delete(m.meta, op.ID)
				_ = m.registry.Remove(op.ID)
			} else {
				eff = 0 // no replica, so no stored record to drop
			}
			m.tombstones[op.ID] = d.vv
		}
		if last != nil {
			*last = d
		}
		due = append(due, eff)
		res = append(res, d.res)
	}
	m.mu.Unlock()
	for i, eff := range due {
		// Backups persist replica details too (update applied within the
		// primary's transaction in the prototype, §4.3).
		op := &ops[i]
		switch eff {
		case 0:
			continue
		case opDelete:
			m.store.Delete(tableReplicaMeta, string(op.ID))
			continue
		case opApply:
			m.observe(op.ID)
		}
		vv := &op.VV
		if own != nil && own[i] != nil {
			vv = &own[i]
		}
		if err := m.store.Put(tableReplicaMeta, string(op.ID), vv); err != nil {
			errs = append(errs, err)
		}
	}
	return res, errors.Join(errs...)
}

// installLocked hands a shipped state and its version to the local entity, if
// this node hosts one (a metadata-only holder does not); callers hold m.mu,
// which is what orders one object's installs like their vectors. A re-create
// restarts the version, so the replica takes the shipped one as it is.
func (m *Manager) installLocked(id object.ID, st object.State, version int64) {
	if e, err := m.registry.Get(id); err == nil {
		e.Restore(st, version)
	}
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
	stale := known && m.protocol.PossiblyStale(info, m.viewFor(info))
	return fetchReply{Class: e.Class(), State: state, Version: version, Stale: stale}, nil
}

func (m *Manager) handlePull(from transport.NodeID, payload any) (any, error) {
	if m.placement != nil {
		// Sharded reconciliation: the pulling peer only cares about the
		// objects it replicates — heal pulls iterate group-resident objects,
		// not the whole namespace.
		return m.RecordsFor(from), nil
	}
	return m.Records(), nil
}

// Records exports this node's full replica table for reconciliation.
func (m *Manager) Records() []Record {
	return m.records(func(Info) bool { return true })
}

// RecordsFor exports the subset of the replica table whose objects the peer
// replicates — what a sharded reconciliation pull from that peer returns.
func (m *Manager) RecordsFor(peer transport.NodeID) []Record {
	return m.records(func(info Info) bool { return info.HasReplica(peer) })
}

func (m *Manager) records(keep func(Info) bool) []Record {
	m.mu.Lock()
	ids := make([]object.ID, 0, len(m.meta))
	for id := range m.meta {
		if keep(m.meta[id].info) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	recs := make([]Record, 0, len(ids))
	for _, id := range ids {
		recs = append(recs, m.recordLocked(id, m.meta[id]))
	}
	m.mu.Unlock()
	return recs
}

// recordLocked builds the reconciliation record of one replica; callers hold
// m.mu. A replica without a local entity (a non-hosting metadata holder)
// exports metadata only.
func (m *Manager) recordLocked(id object.ID, rs *replicaState) Record {
	rec := Record{ID: id, VV: rs.vv, Info: rs.info}
	rec.History = append(rec.History, rs.history...)
	if e, err := m.registry.Get(id); err == nil {
		rec.Class = e.Class()
		rec.State, rec.Version = e.Share()
	}
	return rec
}
