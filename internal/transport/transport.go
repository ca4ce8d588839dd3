// Package transport provides the simulated network substrate replacing the
// paper's LAN + Spread toolkit: an in-process message fabric between named
// nodes with injectable link failures (network partitions), a configurable
// per-hop cost model, and delivery statistics.
//
// Delivery is synchronous (request/response), matching the synchronous
// update propagation of the dissertation's replication protocol (§4.3), but
// every send is bounded by a context.Context: a cancelled or expired context
// fails the send like ErrUnreachable without delivering the message, which is
// what bounded blocking during partitions requires. Nothing below the caller
// re-sends: a dropped message of the paper's lossy-link model (§1.1) fails
// its send, and reconciliation repairs what it missed. An optional per-link
// latency injector (LatencyFunc) adds jitter on top of the fixed cost model
// for tail-latency experiments.
// Partitions are injected with Partition and repaired with Heal; topology
// watchers (the group membership service) are notified on every change in
// epoch order.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dedisys/internal/obs"
	"dedisys/internal/simtime"
)

// NodeID names one node of the system.
type NodeID string

// Errors of the transport layer.
var (
	// ErrUnreachable reports that the destination is in another partition or
	// crashed. Node failures are treated as single-node partitions (§1.1).
	// Context cancellation and expiry surface through the same error (with
	// the context error in the wrap chain): a send abandoned by its caller is
	// indistinguishable from a lost message at the protocol level.
	ErrUnreachable = errors.New("transport: node unreachable")
	// ErrUnknownNode reports a message to a node that never joined.
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrNoHandler reports that the destination has no handler for the kind.
	ErrNoHandler = errors.New("transport: no handler for message kind")
)

// Handler processes one request message and produces a response. The payload
// is its sender's: a handler, like a decorator of a Transport, may read it
// until it returns (until its Send returns), and copies whatever it keeps.
type Handler func(from NodeID, payload any) (any, error)

// CostModel simulates the time cost of one network hop. The zero value costs
// nothing (unit tests); experiments use a calibrated cost to reproduce the
// shape of the paper's 100 Mbit LAN numbers.
type CostModel struct {
	// PerMessage is the fixed round-trip cost charged per delivered message.
	PerMessage time.Duration
}

// DropFunc decides whether one message is lost in transit (the paper's link
// model: links "may fail by losing some messages", §1.1). Dropped messages
// fail with ErrUnreachable at the sender, like a timed-out request.
type DropFunc func(from, to NodeID, kind string) bool

// LatencyFunc injects extra per-link latency for one message — the jitter
// analogue of DropFunc. It is consulted once per delivery attempt and its
// result is charged as simulated time on top of the fixed cost model, so
// experiments can model asymmetric links and heavy latency tails (slow
// replicas) rather than a uniform hop cost. The charge honours the send's
// context: a caller that gives up mid-latency abandons the message like a
// timed-out request.
type LatencyFunc func(from, to NodeID, kind string) time.Duration

// Network is the simulated fabric. It is safe for concurrent use.
type Network struct {
	cost CostModel
	obs  *obs.Observer

	mu       sync.RWMutex
	nodes    map[NodeID]*endpoint
	group    map[NodeID]int // partition index per node; all 0 when healthy
	epoch    int64          // bumped on every topology change
	watchers []func(epoch int64)
	drop     DropFunc
	latency  LatencyFunc

	// notifyMu serialises watcher notification outside n.mu; lastNotified
	// keeps notifications monotone in epoch when topology changes overlap.
	notifyMu     sync.Mutex
	lastNotified int64

	messages *obs.Counter
	failures *obs.Counter
	dropped  *obs.Counter
	sendTime *obs.Histogram
}

type endpoint struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	up       bool
}

// Option configures a Network.
type Option func(*Network)

// WithCost installs a per-hop cost model.
func WithCost(c CostModel) Option {
	return func(n *Network) { n.cost = c }
}

// WithObserver attaches the fabric to a shared observability scope; without
// it the network observes into a private registry.
func WithObserver(o *obs.Observer) Option {
	return func(n *Network) { n.obs = o }
}

// NewNetwork creates an empty fabric.
func NewNetwork(opts ...Option) *Network {
	n := &Network{
		nodes: make(map[NodeID]*endpoint),
		group: make(map[NodeID]int),
	}
	for _, o := range opts {
		o(n)
	}
	if n.obs == nil {
		n.obs = obs.New()
	}
	n.messages = n.obs.Counter("transport.messages")
	n.failures = n.obs.Counter("transport.failures")
	n.dropped = n.obs.Counter("transport.dropped")
	n.sendTime = n.obs.Histogram("transport.send.duration")
	return n
}

// Observer returns the network's observability scope.
func (n *Network) Observer() *obs.Observer { return n.obs }

// Join adds a node to the fabric (initially in the common partition).
func (n *Network) Join(id NodeID) error {
	n.mu.Lock()
	if _, ok := n.nodes[id]; ok {
		n.mu.Unlock()
		return fmt.Errorf("transport: node %s already joined", id)
	}
	n.nodes[id] = &endpoint{handlers: make(map[string]Handler), up: true}
	n.group[id] = 0
	n.epoch++
	n.notifyAndUnlock()
	return nil
}

// Nodes returns all joined node IDs, sorted.
func (n *Network) Nodes() []NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Handle registers the handler for one message kind on a node.
func (n *Network) Handle(id NodeID, kind string, h Handler) error {
	n.mu.RLock()
	ep, ok := n.nodes[id]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.handlers[kind] = h
	return nil
}

// Send delivers a request from one node to another and returns the response.
// It fails with ErrUnreachable when the nodes are in different partitions,
// the destination is crashed, the message is dropped, or the context is
// cancelled or past its deadline (the message is then not delivered). Each
// call is one delivery attempt: nothing below the caller re-sends.
func (n *Network) Send(ctx context.Context, from, to NodeID, kind string, payload any) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cerr := ctx.Err(); cerr != nil {
		n.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: %w", ErrUnreachable, from, to, cerr)
	}
	n.mu.RLock()
	ep, known := n.nodes[to]
	reachable := known && n.connectedLocked(from, to)
	drop := n.drop
	latency := n.latency
	n.mu.RUnlock()
	if !known {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if !reachable {
		n.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	if drop != nil && drop(from, to, kind) {
		n.dropped.Inc()
		n.failures.Inc()
		if n.obs.Tracing() {
			n.obs.Emit(obs.EventMessageDrop, fmt.Sprintf("%s -> %s %s", from, to, kind))
		}
		return nil, fmt.Errorf("%w: %s -> %s (message lost)", ErrUnreachable, from, to)
	}
	ep.mu.RLock()
	h, ok := ep.handlers[kind]
	ep.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoHandler, kind, to)
	}
	// The hop cost — fixed model plus injected per-link latency — may
	// outlive the caller's deadline: the charge then aborts early and the
	// request is abandoned in flight without being delivered.
	hop := n.cost.PerMessage
	if latency != nil {
		hop += latency(from, to, kind)
	}
	if cerr := simtime.ChargeCtx(ctx, hop); cerr != nil {
		n.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: %w", ErrUnreachable, from, to, cerr)
	}
	if cerr := ctx.Err(); cerr != nil {
		n.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: %w", ErrUnreachable, from, to, cerr)
	}
	n.messages.Inc()
	if n.obs.Tracing() {
		// Timing and event emission only when tracing is on: the hot path
		// stays at atomic counter cost so CCM-overhead ratios are unaffected.
		n.obs.Emit(obs.EventMessageSend, fmt.Sprintf("%s -> %s %s", from, to, kind))
		start := time.Now()
		res, err := h(from, payload)
		n.sendTime.Observe(time.Since(start))
		return res, err
	}
	return h(from, payload)
}

// Connected reports whether two nodes can currently communicate.
func (n *Network) Connected(a, b NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.connectedLocked(a, b)
}

// Reachable reports whether to is currently reachable from from: the
// single-peer fast path of ReachableFrom. Callers asking about one peer (the
// failure detector's per-heartbeat ground-truth check, protocol-level "can I
// reach the coordinator" probes) avoid building and sorting the full view
// slice — one map lookup instead of an O(nodes log nodes) allocation.
func (n *Network) Reachable(from, to NodeID) bool {
	return n.Connected(from, to)
}

func (n *Network) connectedLocked(a, b NodeID) bool {
	if a == b {
		epA, okA := n.nodes[a]
		return okA && epA.up
	}
	epA, okA := n.nodes[a]
	epB, okB := n.nodes[b]
	if !okA || !okB || !epA.up || !epB.up {
		return false
	}
	return n.group[a] == n.group[b]
}

// ReachableFrom returns the nodes reachable from the given node (including
// itself when up), sorted. This defines the node's current view.
func (n *Network) ReachableFrom(id NodeID) []NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []NodeID
	for other := range n.nodes {
		if n.connectedLocked(id, other) {
			out = append(out, other)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Partition splits the fabric into the given groups. Nodes not mentioned in
// any group form one additional partition together. Crashed state of nodes
// is unaffected.
func (n *Network) Partition(groups ...[]NodeID) {
	n.mu.Lock()
	assigned := make(map[NodeID]bool)
	for i, g := range groups {
		for _, id := range g {
			n.group[id] = i + 1
			assigned[id] = true
		}
	}
	for id := range n.nodes {
		if !assigned[id] {
			n.group[id] = 0
		}
	}
	n.epoch++
	n.notifyAndUnlock()
}

// Heal repairs all link failures, reuniting every partition.
func (n *Network) Heal() {
	n.mu.Lock()
	for id := range n.group {
		n.group[id] = 0
	}
	n.epoch++
	n.notifyAndUnlock()
}

// Crash marks a node failed (a pause-crash per §1.1): it is unreachable from
// everyone until Recover.
func (n *Network) Crash(id NodeID) {
	n.mu.Lock()
	if ep, ok := n.nodes[id]; ok {
		ep.up = false
		n.epoch++
		n.notifyAndUnlock()
		return
	}
	n.mu.Unlock()
}

// Recover brings a crashed node back.
func (n *Network) Recover(id NodeID) {
	n.mu.Lock()
	if ep, ok := n.nodes[id]; ok {
		ep.up = true
		n.epoch++
		n.notifyAndUnlock()
		return
	}
	n.mu.Unlock()
}

// Epoch returns the topology epoch, bumped on every change.
func (n *Network) Epoch() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.epoch
}

// Watch registers a callback invoked after every topology change with the
// epoch of that change. Notifications are serialised and monotone in epoch:
// when changes overlap, a notification that lost the race to a newer one is
// suppressed (its watchers have already seen the newer state).
func (n *Network) Watch(fn func(epoch int64)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.watchers = append(n.watchers, fn)
}

// notifyAndUnlock snapshots the watcher list and epoch, releases n.mu (so
// watchers may query the network) and notifies under notifyMu. Overlapping
// Partition/Heal/Crash calls therefore cannot deliver notifications out of
// epoch order: the stale notification is dropped after the newer one ran.
func (n *Network) notifyAndUnlock() {
	epoch := n.epoch
	watchers := make([]func(int64), len(n.watchers))
	copy(watchers, n.watchers)
	n.mu.Unlock()

	n.notifyMu.Lock()
	defer n.notifyMu.Unlock()
	if epoch <= n.lastNotified {
		return // a newer change already notified; this snapshot is stale
	}
	n.lastNotified = epoch
	for _, w := range watchers {
		w(epoch)
	}
}

// SetDrop installs (or clears, with nil) the message-loss injector.
func (n *Network) SetDrop(d DropFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.drop = d
}

// SetLatency installs (or clears, with nil) the per-link latency injector.
func (n *Network) SetLatency(l LatencyFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = l
}
