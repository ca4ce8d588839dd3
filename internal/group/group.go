// Package group provides the group membership service (GMS) and group
// communication (GC) components of Figure 4.1: per-node views derived from
// the simulated network, view-change notification for failure/rejoin
// detection, weighted membership for partition-sensitive constraints
// (§5.5.2), and a synchronous multicast primitive used by the replication
// service for update propagation.
//
// Multicast fans out to all destinations concurrently through a bounded
// worker pool, so propagating an update to N reachable replicas costs ~1
// network hop of simulated time instead of N sequential hops, while the
// per-destination results keep the deterministic destination order. The
// caller's context bounds the whole fan-out: cancellation aborts
// destinations that have not been attempted yet.
//
// MulticastThreshold is the quorum-return variant used by the Quorum
// replica-control protocol: the call returns once a configurable number of
// destinations ack, decoupling commit latency from the slowest link, while
// the straggler sends complete in the background.
package group

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// WithObserver attaches the membership service to a shared observability
// scope; without it the service inherits the network's scope.
func WithObserver(o *obs.Observer) Option {
	return func(m *Membership) { m.obs = o }
}

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
		oracle:    true,
		weights:   make(map[transport.NodeID]float64),
		views:     make(map[transport.NodeID]View),
		listeners: make(map[transport.NodeID][]Listener),
	}
	for _, o := range opts {
		o(m)
	}
	if m.obs == nil {
		m.obs = net.Observer()
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
// Fan-out is concurrent through a bounded worker pool; results preserve the
// destination order regardless of completion order.
type Comm struct {
	net     transport.Transport
	workers int
	obs     *obs.Observer

	concurrent          *obs.Counter
	duration            *obs.Histogram
	thresholdRounds     *obs.Counter
	thresholdEarly      *obs.Counter
	thresholdStragglers *obs.Counter
}

// CommOption configures a Comm.
type CommOption func(*Comm)

// WithWorkers bounds the multicast fan-out width (default GOMAXPROCS).
func WithWorkers(n int) CommOption {
	return func(c *Comm) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithCommObserver attaches the component to a shared observability scope;
// without it the component inherits the network's scope.
func WithCommObserver(o *obs.Observer) CommOption {
	return func(c *Comm) { c.obs = o }
}

// NewComm creates a group communication component over the transport.
func NewComm(net transport.Transport, opts ...CommOption) *Comm {
	c := &Comm{net: net, workers: runtime.GOMAXPROCS(0)}
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

// Result is the outcome of one multicast destination.
type Result struct {
	Node     transport.NodeID
	Response any
	Err      error
}

// Multicast sends the message to each destination (excluding the sender if
// present) concurrently and collects responses. Unreachable destinations
// report errors in their result; the multicast itself always returns all
// results, in destination order. A cancelled context aborts the fan-out
// early: destinations not yet attempted report the context error without a
// send; destinations in flight fail inside the transport.
func (c *Comm) Multicast(ctx context.Context, from transport.NodeID, to []transport.NodeID, kind string, payload any) []Result {
	return c.MulticastEach(ctx, from, to, kind, func(transport.NodeID) any { return payload })
}

// MulticastEach is Multicast with a per-destination payload: payloadFor is
// called once per destination (possibly concurrently from the worker pool)
// and its result is sent to that destination. The replication service uses
// it to ship transaction batches that carry, per replica node, only the
// operations whose objects that node hosts. Fan-out, ordering and
// cancellation semantics are identical to Multicast.
func (c *Comm) MulticastEach(ctx context.Context, from transport.NodeID, to []transport.NodeID, kind string, payloadFor func(transport.NodeID) any) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	dests := excluding(to, from)
	results := make([]Result, len(dests))
	if len(dests) == 0 {
		return results
	}
	start := time.Now()
	if len(dests) == 1 {
		// The fast path keeps the worker-pool semantics: a context that is
		// already dead aborts the destination without invoking payloadFor or
		// attempting a send, exactly as a pool worker would.
		if err := ctx.Err(); err != nil {
			results[0] = Result{Node: dests[0], Err: fmt.Errorf("group: multicast to %s aborted: %w", dests[0], err)}
		} else {
			resp, err := c.net.Send(ctx, from, dests[0], kind, payloadFor(dests[0]))
			results[0] = Result{Node: dests[0], Response: resp, Err: err}
		}
		c.duration.Observe(time.Since(start))
		return results
	}
	width := c.workers
	if width > len(dests) {
		width = len(dests)
	}
	if width < 1 {
		width = 1
	}
	if width > 1 {
		c.concurrent.Inc()
	}
	// Workers claim destination indices from a shared cursor; each writes its
	// own slot of results, so the output order matches the input order no
	// matter which destination answers first.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(dests) {
					return
				}
				dst := dests[i]
				if err := ctx.Err(); err != nil {
					results[i] = Result{Node: dst, Err: fmt.Errorf("group: multicast to %s aborted: %w", dst, err)}
					continue
				}
				resp, err := c.net.Send(ctx, from, dst, kind, payloadFor(dst))
				results[i] = Result{Node: dst, Response: resp, Err: err}
			}
		}()
	}
	wg.Wait()
	c.duration.Observe(time.Since(start))
	return results
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

	results []Result
	done    chan struct{}
	cursor  atomic.Int32 // next destination index a send goroutine claims

	mu       sync.Mutex
	finished int            // sends that have written their result slot
	onDone   func([]Result) // set by OnComplete while sends are in flight
}

// Wait blocks until every send of the round has completed — stragglers
// included — and returns the full per-destination results in destination
// order. It is safe to call from multiple goroutines.
func (tc *ThresholdCall) Wait() []Result {
	<-tc.done
	return tc.results
}

// OnComplete runs fn with the full results once every send has completed: on
// the last send's goroutine, or at once when the round has already drained.
// It is Wait without a goroutine parked on it; one fn per call.
func (tc *ThresholdCall) OnComplete(fn func([]Result)) {
	tc.mu.Lock()
	tc.onDone = fn
	drained := tc.finished == len(tc.results)
	tc.mu.Unlock()
	if drained {
		fn(tc.results)
	}
}

// ErrThresholdShort reports a threshold multicast whose round completed with
// fewer acks than required.
var ErrThresholdShort = errors.New("group: threshold multicast fell short")

// MulticastThreshold is MulticastEach with quorum-return semantics: the call
// returns as soon as `need` destinations acked (a nil send error counts as
// an ack), while the remaining sends complete in the background and their
// results become visible through Wait. Every destination is attempted
// concurrently — the primitive exists to decouple the caller's latency from
// the slowest link, so sends are not funneled through the bounded worker
// pool. need is clamped to [0, len(destinations excluding from)]; with need
// 0 the call still issues every send but returns immediately. A dead
// context aborts destinations that have not been attempted yet, and the
// call returns early with the context error once no outcome can change.
//
// to is not copied unless it contains from: the background sends read it
// until Wait returns, so the caller must not modify it before then.
func (c *Comm) MulticastThreshold(ctx context.Context, from transport.NodeID, to []transport.NodeID, kind string, payloadFor func(transport.NodeID) any, need int) *ThresholdCall {
	if ctx == nil {
		ctx = context.Background()
	}
	dests := excluding(to, from)
	tc := &ThresholdCall{
		results: make([]Result, len(dests)),
		done:    make(chan struct{}),
	}
	if need > len(dests) {
		need = len(dests)
	}
	if need < 0 {
		need = 0
	}
	if len(dests) == 0 {
		close(tc.done)
		return tc
	}
	start := time.Now()
	c.thresholdRounds.Inc()
	// One goroutine per destination, all running the round's one closure:
	// each claims an index, writes that result slot and reports the index on
	// the completion channel (buffered for every send, so none blocks). The
	// foreground loop below is the only reader of result slots before tc.done
	// closes, and it only reads slots whose index it received — the channel
	// send orders the slot write before the read.
	completions := make(chan int, len(dests))
	send := func() {
		i := int(tc.cursor.Add(1)) - 1
		dst := dests[i]
		if err := ctx.Err(); err != nil {
			tc.results[i] = Result{Node: dst, Err: fmt.Errorf("group: multicast to %s aborted: %w", dst, err)}
		} else {
			resp, err := c.net.Send(ctx, from, dst, kind, payloadFor(dst))
			tc.results[i] = Result{Node: dst, Response: resp, Err: err}
		}
		completions <- i
		// The last send closes done; the mutex orders every result-slot write
		// before that.
		tc.mu.Lock()
		tc.finished++
		last, fn := tc.finished == len(dests), tc.onDone
		tc.mu.Unlock()
		if last {
			close(tc.done)
			if fn != nil {
				fn(tc.results)
			}
		}
	}
	for range dests {
		go send()
	}

	for tc.Completed < len(dests) {
		// The threshold is reached, or can no longer be reached even if every
		// remaining send succeeds: the caller learns its outcome now, the
		// stragglers keep running.
		if tc.Acked >= need {
			break
		}
		if tc.Acked+(len(dests)-tc.Completed) < need {
			tc.Err = fmt.Errorf("%w: %d of %d acks (%d destinations)", ErrThresholdShort, tc.Acked, need, len(dests))
			break
		}
		select {
		case i := <-completions:
			tc.Completed++
			if tc.results[i].Err == nil {
				tc.Acked++
			}
		case <-ctx.Done():
			tc.Err = fmt.Errorf("group: threshold multicast aborted: %w", ctx.Err())
		}
		if tc.Err != nil {
			break
		}
	}
	if tc.Err == nil && tc.Acked < need {
		tc.Err = fmt.Errorf("%w: %d of %d acks (%d destinations)", ErrThresholdShort, tc.Acked, need, len(dests))
	}
	if tc.Completed < len(dests) {
		c.thresholdEarly.Inc()
		c.thresholdStragglers.Add(int64(len(dests) - tc.Completed))
	}
	c.duration.Observe(time.Since(start))
	return tc
}

// Send forwards a point-to-point message (convenience over the network).
func (c *Comm) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	return c.net.Send(ctx, from, to, kind, payload)
}
