// Package group provides the group membership service (GMS) and group
// communication (GC) components of Figure 4.1: per-node views derived from
// the simulated network, view-change notification for failure/rejoin
// detection, weighted membership for partition-sensitive constraints
// (§5.5.2), and a synchronous multicast primitive used by the replication
// service for update propagation.
//
// Every multicast is one round: a Round value the caller fills in and may
// embed in its own per-round struct, and an Owner the round calls back on —
// what destination i is sent, what it answered and whether that settles the
// round, that the last answer is in. A round differs from another only in
// when its caller is released: with the last answer (the synchronous
// multicast), at the owner's verdict (a threshold round, decoupled from its
// slowest link while the stragglers complete in the background), or at once.
//
// Who sends is the caller's choice. Comm.Run is the fan-out engine: one sender
// per destination, all started at once, so a round to N destinations costs ~1
// network hop of simulated time instead of N on any number of cores; the
// caller's context bounds the round, and destinations not yet attempted when
// it dies are aborted without a send. Comm.Post hands the sends to a
// Dispatcher that makes them elsewhere — the replication service's one sender
// per peer — and keeps the rest: the release, the verdict and the counts.
//
// Multicast (one payload, every result in destination order) and
// MulticastThreshold (a payload function and a count of acks) are adapters
// over the engine.
package group

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dedisys/internal/obs"
	"dedisys/internal/transport"
)

// View is one node's perception of the reachable group.
type View struct {
	// Epoch is the source epoch at which the view was installed: the
	// topology epoch under the oracle source, or the detector's own view
	// epoch under detector-driven membership.
	Epoch int64
	// Members are the reachable nodes (including the owner), sorted.
	Members []transport.NodeID
}

// Contains reports whether the node is part of the view.
func (v View) Contains(id transport.NodeID) bool {
	for _, m := range v.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Size returns the number of reachable nodes.
func (v View) Size() int { return len(v.Members) }

// Equal reports whether two views have the same membership.
func (v View) Equal(o View) bool {
	if len(v.Members) != len(o.Members) {
		return false
	}
	for i := range v.Members {
		if v.Members[i] != o.Members[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (v View) String() string {
	return fmt.Sprintf("view@%d%v", v.Epoch, v.Members)
}

// Listener is notified when a node's view changes.
type Listener func(old, new View)

// ViewSource supplies one node's locally-derived membership views. The
// default topology oracle bypasses this interface — it computes every
// node's view from the simulated topology in one pass, instantly and
// perfectly — whereas a message-driven failure detector (detect.Detector)
// implements it for its own node: views then lag topology changes by real
// detection latency, may disagree between nodes, and can be wrong under
// lossy links. Sources are attached with WithDetector or AttachSource.
type ViewSource interface {
	// Self names the node whose views this source produces.
	Self() transport.NodeID
	// Current returns the source's current view epoch and members.
	Current() (epoch int64, members []transport.NodeID)
	// OnChange registers fn to run after every view change.
	OnChange(fn func(epoch int64, members []transport.NodeID))
}

// Membership is the GMS. It maintains one view per node, fed either by the
// topology oracle (default: views recomputed from the simulated network on
// every topology change) or by per-node failure detectors (WithDetector).
type Membership struct {
	net    transport.Transport
	truth  transport.Oracle // nil when the transport has no topology oracle
	obs    *obs.Observer
	oracle bool

	mu        sync.Mutex
	known     []transport.NodeID // joined-node universe, snapshotted with views
	weights   map[transport.NodeID]float64
	views     map[transport.NodeID]View
	listeners map[transport.NodeID][]Listener

	viewChanges *obs.Counter

	pending []ViewSource // sources passed to WithDetector, attached in NewMembership
}

// Option configures a Membership.
type Option func(*Membership)

// WithDetector switches the membership service from the topology oracle to
// detector-driven views: per-node views are only installed when that node's
// failure detector publishes them, so degraded-mode entry and exit carry
// real detection latency. Sources for nodes built later (the usual case —
// detectors are per-node components) attach with AttachSource.
func WithDetector(srcs ...ViewSource) Option {
	return func(m *Membership) {
		m.oracle = false
		m.pending = append(m.pending, srcs...)
	}
}

// NewMembership creates a membership service bound to the transport. Node
// weights default to 1; override them with SetWeight before partitioning.
//
// In the default topology-oracle mode the transport is type-asserted for
// transport.Oracle (the simulated Network): views are then recomputed from
// the ground truth on every topology change. A transport without an oracle —
// the real-wire backend — falls back to static full views (every node sees
// every joined node); entering degraded mode on such a transport requires
// detector-driven membership (WithDetector).
func NewMembership(net transport.Transport, opts ...Option) *Membership {
	m := &Membership{
		net:       net,
		obs:       net.Observer(),
		oracle:    true,
		weights:   make(map[transport.NodeID]float64),
		views:     make(map[transport.NodeID]View),
		listeners: make(map[transport.NodeID][]Listener),
	}
	for _, o := range opts {
		o(m)
	}
	m.viewChanges = m.obs.Counter("group.view_changes")
	m.truth, _ = net.(transport.Oracle)
	if m.oracle {
		net.Watch(m.refresh)
		m.refresh(net.Epoch())
	} else {
		// Detector mode still tracks the joined-node universe (Degraded and
		// PartitionWeight compare views against all deployed nodes — joins
		// are deployment actions, not failures, so this is not cheating).
		net.Watch(func(int64) { m.syncKnown() })
		m.syncKnown()
		for _, src := range m.pending {
			m.AttachSource(src)
		}
		m.pending = nil
	}
	return m
}

// DetectorDriven reports whether views come from failure detectors rather
// than the topology oracle.
func (m *Membership) DetectorDriven() bool { return !m.oracle }

// AttachSource subscribes the membership service to a node's view source
// (detector mode only) and installs the source's current view.
func (m *Membership) AttachSource(src ViewSource) {
	src.OnChange(func(epoch int64, members []transport.NodeID) {
		m.install(src.Self(), epoch, members)
	})
	epoch, members := src.Current()
	m.install(src.Self(), epoch, members)
}

// syncKnown refreshes the joined-node universe under the view lock.
func (m *Membership) syncKnown() {
	nodes := m.net.Nodes()
	m.mu.Lock()
	m.known = nodes
	m.mu.Unlock()
}

// SetWeight assigns a weight to a node (Gifford-style weighted membership,
// §5.5.2). Weights must be positive.
func (m *Membership) SetWeight(id transport.NodeID, w float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.weights[id] = w
}

// ViewOf returns the current view of a node.
func (m *Membership) ViewOf(id transport.NodeID) View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.views[id]
}

// Degraded reports whether a node perceives the system as degraded: its
// view does not cover all joined nodes (§1.4's degraded mode). View and
// node universe are read under one lock, so a concurrent Partition/Heal can
// never pair a stale view with a fresh node list.
func (m *Membership) Degraded(id transport.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.views[id].Size() < len(m.known)
}

// PartitionWeight returns the weight fraction of the node's current
// partition relative to the whole system (§5.5.2). A healthy system yields
// 1. Like Degraded, it computes both sides of the fraction from one
// consistent snapshot.
func (m *Membership) PartitionWeight(id transport.NodeID) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total, mine float64
	for _, n := range m.known {
		total += m.weightLocked(n)
	}
	if total == 0 {
		return 1
	}
	for _, n := range m.views[id].Members {
		mine += m.weightLocked(n)
	}
	return mine / total
}

// FilteredView returns the node's current view restricted to the given
// member set (an object's replica group under sharded placement): the view's
// epoch with the intersection of its members and the set, preserving the
// view's sorted order. Detector-driven views filter exactly the same way, so
// group-local decisions compose unchanged with lagging or wrong views.
//
// When the view covers the whole set (the healthy steady state) and the set
// is sorted and duplicate-free, as every replica list is, the result shares
// the caller's slice, cap-clamped so that an append reallocates; both are
// read-only from then on.
func (m *Membership) FilteredView(id transport.NodeID, members []transport.NodeID) View {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.views[id]
	out := View{Epoch: v.Epoch}
	hit, ordered := 0, true
	for i, n := range members {
		if v.Contains(n) {
			hit++
		}
		if i > 0 && members[i-1] >= n {
			ordered = false
		}
	}
	if hit == len(members) && ordered {
		out.Members = members[:hit:hit]
	} else if hit > 0 {
		out.Members = make([]transport.NodeID, 0, hit)
		for _, n := range v.Members {
			if containsNode(members, n) {
				out.Members = append(out.Members, n)
			}
		}
	}
	return out
}

// DegradedWithin is the group-local analogue of Degraded: the node perceives
// the given member set as degraded when some deployed member of the set is
// missing from its view. Members that never joined the network do not count
// (joins are deployment actions, not failures), matching Degraded's use of
// the joined-node universe. View, universe and weights are snapshotted under
// one lock, as in Degraded.
func (m *Membership) DegradedWithin(id transport.NodeID, members []transport.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.views[id]
	for _, n := range members {
		if containsNode(m.known, n) && !v.Contains(n) {
			return true
		}
	}
	return false
}

// PartitionWeightWithin returns the weight fraction of the node's partition
// relative to the given member set — the group-local §5.5.2 weight that
// partition-aware protocols consult under sharded placement. Members that
// never joined are excluded from both sides of the fraction; an empty
// denominator yields 1 (an unpopulated group is trivially whole).
func (m *Membership) PartitionWeightWithin(id transport.NodeID, members []transport.NodeID) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.views[id]
	var total, mine float64
	for _, n := range members {
		if !containsNode(m.known, n) {
			continue
		}
		w := m.weightLocked(n)
		total += w
		if v.Contains(n) {
			mine += w
		}
	}
	if total == 0 {
		return 1
	}
	return mine / total
}

func containsNode(list []transport.NodeID, id transport.NodeID) bool {
	for _, n := range list {
		if n == id {
			return true
		}
	}
	return false
}

// excluding returns to without from: to itself, not a copy, when from is not
// in it.
func excluding(to []transport.NodeID, from transport.NodeID) []transport.NodeID {
	if !containsNode(to, from) {
		return to
	}
	out := make([]transport.NodeID, 0, len(to)-1)
	for _, dst := range to {
		if dst != from {
			out = append(out, dst)
		}
	}
	return out
}

func (m *Membership) weightLocked(id transport.NodeID) float64 {
	if w, ok := m.weights[id]; ok && w > 0 {
		return w
	}
	return 1
}

// OnViewChange registers a listener for one node's view changes. Listeners
// run synchronously inside the topology change.
func (m *Membership) OnViewChange(id transport.NodeID, l Listener) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listeners[id] = append(m.listeners[id], l)
}

// change is one installed view update with its listener batch.
type change struct {
	listeners []Listener
	old, new  View
}

// applyLocked installs one node's view and returns the listener batch to
// run after the lock is released (nil when the membership is unchanged).
// Callers hold m.mu.
func (m *Membership) applyLocked(id transport.NodeID, nv View) *change {
	ov := m.views[id]
	if nv.Equal(ov) {
		return nil
	}
	m.views[id] = nv
	m.viewChanges.Inc()
	if m.obs.Tracing() {
		m.obs.Emit(obs.EventViewChange, fmt.Sprintf("%s: %v -> %v", id, ov.Members, nv.Members))
	}
	ls := make([]Listener, len(m.listeners[id]))
	copy(ls, m.listeners[id])
	return &change{listeners: ls, old: ov, new: nv}
}

// refresh recomputes every node's view from the topology oracle. All views
// and the node universe are updated under one lock (a single consistent
// snapshot); listeners run afterwards. On a transport without a ground-truth
// oracle every node's view is the full joined universe: a static-membership
// wire transport reports no partitions by itself.
func (m *Membership) refresh(epoch int64) {
	var changes []*change
	m.mu.Lock()
	m.known = m.net.Nodes()
	for _, id := range m.known {
		var members []transport.NodeID
		if m.truth != nil {
			members = m.truth.ReachableFrom(id)
		} else {
			members = append([]transport.NodeID(nil), m.known...)
		}
		nv := View{Epoch: epoch, Members: members}
		if c := m.applyLocked(id, nv); c != nil {
			changes = append(changes, c)
		}
	}
	m.mu.Unlock()
	for _, c := range changes {
		for _, l := range c.listeners {
			l(c.old, c.new)
		}
	}
}

// install records one node's detector-derived view.
func (m *Membership) install(id transport.NodeID, epoch int64, members []transport.NodeID) {
	nv := View{Epoch: epoch, Members: append([]transport.NodeID(nil), members...)}
	m.mu.Lock()
	c := m.applyLocked(id, nv)
	m.mu.Unlock()
	if c == nil {
		return
	}
	for _, l := range c.listeners {
		l(c.old, c.new)
	}
}

// Comm is the group communication component: synchronous multicast with
// per-destination results, as needed for synchronous update propagation.
// Every round runs on the one fan-out engine, Run.
type Comm struct {
	net transport.Transport
	obs *obs.Observer

	concurrent          *obs.Counter
	duration            *obs.Histogram
	thresholdRounds     *obs.Counter
	thresholdEarly      *obs.Counter
	thresholdStragglers *obs.Counter

	// wakes are the idle wake-up channels of waiting callers: one is back
	// here only once no sender can still send on it (Run).
	wakeMu sync.Mutex
	wakes  []chan struct{}
}

// CommOption configures a Comm.
type CommOption func(*Comm)

// WithCommObserver attaches the component to a shared observability scope;
// without it the component inherits the network's scope.
func WithCommObserver(o *obs.Observer) CommOption {
	return func(c *Comm) { c.obs = o }
}

// NewComm creates a group communication component over the transport.
func NewComm(net transport.Transport, opts ...CommOption) *Comm {
	c := &Comm{net: net}
	for _, o := range opts {
		o(c)
	}
	if c.obs == nil {
		c.obs = net.Observer()
	}
	c.concurrent = c.obs.Counter("group.multicast.concurrent")
	c.duration = c.obs.Histogram("group.multicast.duration")
	c.thresholdRounds = c.obs.Counter("group.multicast.threshold.rounds")
	c.thresholdEarly = c.obs.Counter("group.multicast.threshold.early")
	c.thresholdStragglers = c.obs.Counter("group.multicast.threshold.stragglers")
	return c
}

// Verdict is a round owner's judgement once one more destination answered.
type Verdict uint8

const (
	Open      Verdict = iota // nothing is decided: the caller keeps waiting
	Satisfied                // the round has what its caller waits for
	Hopeless                 // it can no longer get it, whatever the rest answer
)

// Release says when Run or Post lets its caller go. Sends that have not
// finished by then — the stragglers — complete in the background.
type Release uint8

const (
	// OnDrain releases when the last send has finished, whatever Answered
	// said: the synchronous multicast. A dead context does not release the
	// caller; the sends in flight fail inside the transport.
	OnDrain Release = iota
	// OnVerdict releases at the first Answered that does not say Open, when
	// every destination has answered, or when the context dies.
	OnVerdict
	// AtOnce releases as soon as the sends are started.
	AtOnce
)

// Owner is what a round calls back on: the value that knows what the round
// ships and what its caller waits for. A caller that embeds the Round in its
// own per-round struct and implements Owner on that struct pays for neither a
// closure nor a boxed value per round.
type Owner interface {
	// Payload returns what destination To[i] is sent. Run calls it once per
	// destination that is attempted, from that destination's sender, so
	// concurrently with the others. What it returns is the sender's: the
	// transport, a receiver's handler and a decorator may read it until
	// their Send returns, and copy whatever they keep. An owner may reuse a
	// round's memory once the round has drained.
	Payload(i int) any
	// Answered reports the outcome of the send to To[i] — a send aborted by
	// a dead context included — and returns the round's standing after it.
	// Calls are serialised under the round's lock and none is missed, also
	// after the caller was released, when the verdict no longer matters. It
	// must not block or call into the round.
	Answered(i int, reply any, err error) Verdict
	// Drained runs exactly once, after the last Answered: on the last
	// sender's goroutine, or on the caller's when no send is in flight.
	Drained()
}

// Dispatcher is an Owner that makes its round's sends itself (Post): it is
// called once the round is open, and the outcome of the send to each To[i]
// must then reach the round's Answer exactly once, from any goroutine, before
// or after Dispatch returns.
type Dispatcher interface {
	Owner
	Dispatch()
}

// Round is one multicast round. The caller fills in the exported fields and
// hands it to Run or Post once — an owner that reuses it zeroes it first; To
// must not contain From and is read until the round has drained. The rest is
// the engine's (the counters are narrow because a round is embedded in what
// every replicated write allocates).
type Round struct {
	From  transport.NodeID
	To    []transport.NodeID
	Kind  string
	Until Release

	next  atomic.Int32 // next index of To a sender claims
	comm  *Comm
	ctx   context.Context
	owner Owner
	wake  chan struct{} // carries the one wake-up of a caller that waits; the Comm's, lent

	mu       sync.Mutex
	done     chan struct{} // made by a Wait that finds sends in flight
	answered int32         // sends whose Answered has returned
	left     int32         // sends in flight at the release
	released bool          // the caller was let go, or never waits
	verdict  Verdict       // Answered's, as of the release
}

// ErrThresholdShort reports an OnVerdict round that released its caller
// without being satisfied: its owner called it hopeless, or every destination
// answered and it was still open.
var ErrThresholdShort = errors.New("group: threshold multicast fell short")

// Run is the fan-out engine: one sender per destination, all started at once
// — a round costs one network hop of simulated time whatever the destination
// and core counts — each reporting to the owner as it completes, and the
// caller released as r.Until says. The one destination of an OnDrain round is
// sent to on the caller's goroutine: there is nothing to overlap with. The
// senders cost one function value between them. Run carries Multicast,
// MulticastThreshold and the replication service's reconciliation requests;
// a commit's batches leave through Post.
//
// A dead context aborts every destination not yet attempted without a send.
// The error is nil unless an OnVerdict round was left unsatisfied: then it
// wraps the context's when the context is dead, ErrThresholdShort otherwise.
func (c *Comm) Run(ctx context.Context, r *Round, o Owner) error {
	start := time.Now()
	inline := r.Until == OnDrain && len(r.To) == 1
	if c.open(ctx, r, o, inline) {
		if inline {
			r.send()
		} else {
			if r.Until == OnDrain {
				c.concurrent.Inc()
			}
			send := r.send
			for range r.To {
				go send()
			}
		}
	}
	return c.await(r, start)
}

// Post runs the round as Run does, but d makes its sends: Post calls
// d.Dispatch once in place of starting a sender per destination, and the
// caller is released as r.Until says while the outcomes reach r.Answer. A
// dead context releases an OnVerdict round's caller as under Run; aborting a
// destination not yet sent to is d's (Context).
func (c *Comm) Post(ctx context.Context, r *Round, d Dispatcher) error {
	start := time.Now()
	if c.open(ctx, r, d, false) {
		d.Dispatch()
	}
	return c.await(r, start)
}

// open readies the round for its sends and reports whether it has any: one
// without destinations is drained at once. The caller of an inline round
// makes its one send itself and waits for no wake-up; any other caller that
// waits takes its wake-up channel from the Comm's idle list, and puts it back
// once nobody can still send on it (await).
func (c *Comm) open(ctx context.Context, r *Round, o Owner, inline bool) bool {
	if ctx == nil {
		ctx = context.Background()
	}
	n := int32(len(r.To))
	if n == 0 {
		o.Drained()
		return false
	}
	r.comm, r.ctx, r.owner = c, ctx, o
	if r.Until != OnDrain {
		c.thresholdRounds.Inc()
	}
	if r.Until == AtOnce {
		r.left = n
	}
	r.released = inline || r.Until == AtOnce
	if !r.released {
		r.wake = c.takeWake()
	}
	return true
}

// await releases the caller of an open round as r.Until says. Whoever answers
// decides under the round's lock whether the caller is to be woken, so a
// round costs its caller nothing: the caller puts its wake-up channel back
// when it received the wake-up, or when its dead context released it before
// any answer did. A caller that leaves on a dead context after an answer
// released it leaves the channel to that answer's send and to the collector.
func (c *Comm) await(r *Round, start time.Time) error {
	n := int32(len(r.To))
	if n == 0 {
		return nil
	}
	if r.wake != nil {
		var dead <-chan struct{}
		if r.Until == OnVerdict {
			dead = r.ctx.Done()
		}
		select {
		case <-r.wake:
			c.putWake(r.wake) // the one wake-up is done
		case <-dead:
			r.mu.Lock()
			mine := !r.released
			if mine {
				r.released, r.left = true, n-r.answered
			}
			r.mu.Unlock()
			if mine {
				c.putWake(r.wake) // no answer will send
			}
		}
	}
	var err error
	if r.Until == OnVerdict && r.verdict != Satisfied {
		if cerr := r.ctx.Err(); cerr != nil {
			err = fmt.Errorf("group: threshold multicast aborted: %w", cerr)
		} else {
			err = fmt.Errorf("%w: %d of %d destinations had answered", ErrThresholdShort, n-r.left, n)
		}
	}
	if r.Until != OnDrain && r.left > 0 {
		c.thresholdEarly.Inc()
		c.thresholdStragglers.Add(int64(r.left))
	}
	c.duration.Observe(time.Since(start))
	return err
}

// takeWake returns an idle wake-up channel, or a new one when none is idle.
func (c *Comm) takeWake() chan struct{} {
	c.wakeMu.Lock()
	defer c.wakeMu.Unlock()
	if k := len(c.wakes); k > 0 {
		w := c.wakes[k-1]
		c.wakes = c.wakes[:k-1]
		return w
	}
	return make(chan struct{}, 1)
}

// putWake makes an empty wake-up channel no sender can still send on idle.
func (c *Comm) putWake(w chan struct{}) {
	c.wakeMu.Lock()
	c.wakes = append(c.wakes, w)
	c.wakeMu.Unlock()
}

// send is one destination's sender under Run.
func (r *Round) send() {
	i := int(r.next.Add(1)) - 1
	dst := r.To[i]
	var reply any
	err := r.ctx.Err()
	if err != nil {
		err = fmt.Errorf("group: multicast to %s aborted: %w", dst, err)
	} else {
		reply, err = r.comm.net.Send(r.ctx, r.From, dst, r.Kind, r.owner.Payload(i))
	}
	r.Answer(i, reply, err)
}

// Context returns the context the round runs under: a Dispatcher answers a
// destination it has not sent to yet with its error once it is dead.
func (r *Round) Context() context.Context { return r.ctx }

// Released reports whether the round's caller was let go: the sends still to
// answer are stragglers nobody waits for.
func (r *Round) Released() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.released
}

// Answer books the outcome of the send to To[i] — through the owner's
// Answered, under the round's lock — wakes the caller when that releases it,
// and runs Drained after the last one. Each destination is answered once.
func (r *Round) Answer(i int, reply any, err error) {
	r.mu.Lock()
	v := r.owner.Answered(i, reply, err)
	r.answered++
	last := int(r.answered) == len(r.To)
	wake := !r.released && (last || r.Until == OnVerdict && v != Open)
	if wake {
		r.released, r.verdict, r.left = true, v, int32(len(r.To))-r.answered
	}
	done := r.done
	r.mu.Unlock()
	if wake {
		r.wake <- struct{}{}
	}
	if last {
		if done != nil {
			close(done)
		}
		r.owner.Drained()
	}
}

// Wait blocks until every send of the round has completed, stragglers
// included. It is safe to call from several goroutines; its channel is made
// only when a call finds sends in flight.
func (r *Round) Wait() {
	r.mu.Lock()
	if int(r.answered) == len(r.To) {
		r.mu.Unlock()
		return
	}
	if r.done == nil {
		r.done = make(chan struct{})
	}
	done := r.done
	r.mu.Unlock()
	<-done
}

// Result is the outcome of one multicast destination.
type Result struct {
	Node     transport.NodeID
	Response any
	Err      error
}

// resultRoom returns n result slots: the inline room when they fit.
func resultRoom(room []Result, n int) []Result {
	if n <= len(room) {
		return room[:n:n]
	}
	return make([]Result, n)
}

// multicast is the round of Multicast: one payload for everybody, every
// result kept.
type multicast struct {
	Round
	payload any
	results []Result
	room    [3]Result
}

func (m *multicast) Payload(int) any { return m.payload }

func (m *multicast) Answered(i int, reply any, err error) Verdict {
	m.results[i] = Result{Node: m.To[i], Response: reply, Err: err}
	return Open
}

func (m *multicast) Drained() {}

// Multicast sends the message to each destination (excluding the sender if
// present) concurrently and collects responses. Unreachable destinations
// report errors in their result; the multicast itself always returns all
// results, in destination order. A context that is dead before the round
// aborts every destination without a send; one that dies during it fails the
// sends in flight inside the transport.
func (c *Comm) Multicast(ctx context.Context, from transport.NodeID, to []transport.NodeID, kind string, payload any) []Result {
	m := &multicast{Round: Round{From: from, To: excluding(to, from), Kind: kind}, payload: payload}
	m.results = resultRoom(m.room[:], len(m.To))
	_ = c.Run(ctx, &m.Round, m) // only an OnVerdict round reports an error
	return m.results
}

// ThresholdCall is the synchronously-observable part of a threshold
// multicast: MulticastThreshold returns it as soon as the required number of
// destinations acked, while the remaining sends (the stragglers) complete in
// the background. The counts are a consistent snapshot taken at return time;
// the full per-destination results are only available through Wait, which
// blocks until every send finished.
type ThresholdCall struct {
	// Acked is the number of successful acks when the call returned.
	Acked int
	// Completed is the number of sends (acked or failed) that had finished
	// when the call returned; len(dests)-Completed sends were still in
	// flight — the stragglers the threshold return decoupled from.
	Completed int
	// Err is nil when the threshold was reached; otherwise the reason the
	// call returned early (the context error, or a shortfall when every
	// send completed without enough acks).
	Err error

	round      Round
	payloadFor func(transport.NodeID) any
	need       int
	acked      int // successful answers so far; under round.mu, as Answered runs
	results    []Result
	room       [3]Result
}

// Wait blocks until every send of the round has completed — stragglers
// included — and returns the full per-destination results in destination
// order. It is safe to call from multiple goroutines.
func (tc *ThresholdCall) Wait() []Result {
	tc.round.Wait()
	return tc.results
}

// thresholdOwner keeps the Owner methods off ThresholdCall's exported face.
type thresholdOwner ThresholdCall

func (t *thresholdOwner) Payload(i int) any { return t.payloadFor(t.round.To[i]) }

func (t *thresholdOwner) Answered(i int, reply any, err error) Verdict {
	t.results[i] = Result{Node: t.round.To[i], Response: reply, Err: err}
	if err == nil {
		t.acked++
	}
	switch inFlight := len(t.results) - int(t.round.answered) - 1; {
	case t.acked >= t.need:
		return Satisfied
	case t.acked+inFlight < t.need:
		return Hopeless
	}
	return Open
}

func (t *thresholdOwner) Drained() {}

// MulticastThreshold is the engine behind a plain count: the call returns as
// soon as `need` destinations acked (a nil send error counts as an ack) or no
// longer can, while the remaining sends complete in the background and their
// results become visible through Wait. need is clamped to [0,
// len(destinations excluding from)]; with need 0 the call still issues every
// send but returns immediately. A dead context aborts destinations that have
// not been attempted yet, and the call returns early with the context error.
//
// to is not copied unless it contains from: the background sends read it
// until Wait returns, so the caller must not modify it before then.
func (c *Comm) MulticastThreshold(ctx context.Context, from transport.NodeID, to []transport.NodeID, kind string, payloadFor func(transport.NodeID) any, need int) *ThresholdCall {
	dests := excluding(to, from)
	tc := &ThresholdCall{
		round:      Round{From: from, To: dests, Kind: kind, Until: OnVerdict},
		payloadFor: payloadFor,
		need:       max(0, min(need, len(dests))),
	}
	if tc.need == 0 {
		tc.round.Until = AtOnce
	}
	tc.results = resultRoom(tc.room[:], len(dests))
	tc.Err = c.Run(ctx, &tc.round, (*thresholdOwner)(tc))
	tc.round.mu.Lock()
	tc.Acked, tc.Completed = tc.acked, int(tc.round.answered)
	tc.round.mu.Unlock()
	return tc
}

// Send forwards a point-to-point message (convenience over the network).
func (c *Comm) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	return c.net.Send(ctx, from, to, kind, payload)
}
