package transport

import (
	"context"

	"dedisys/internal/obs"
)

// Transport is the messaging surface every middleware subsystem consumes:
// group communication and membership, the failure detector, replication,
// naming, the constraint consistency manager and the node assembly all
// program against this interface, never against a concrete fabric.
//
// Two implementations exist. The in-process simulated Network (this package)
// is the default for tests, experiments and the script engine: it adds the
// simulation-only fault-injection surface (Partition/Heal/Crash/Recover/
// SetDrop/SetLatency and the cost model), which deliberately stays OFF this
// interface — protocol code must not be able to consult or manipulate the
// simulated topology. The real-wire backend (internal/wiretransport) speaks
// length-prefixed frames — gob, or the payload's own bytes for a WirePayload —
// over TCP or unix sockets between OS processes launched by cmd/dedisys-node.
//
// Semantics every implementation must provide:
//
//   - Send is synchronous request/response, bounded by the context: a
//     cancelled or expired context fails the send with ErrUnreachable
//     (context error in the wrap chain) without a handler result.
//   - Unreachable destinations (partitioned, crashed, connection refused,
//     lost message) fail with ErrUnreachable.
//   - Every Send is one attempt: nothing below the caller re-sends, since a
//     request that failed "connection lost" may already have run. What a
//     lost message missed, reconciliation repairs.
//   - Handlers are registered per (node, kind); a send for an unregistered
//     kind fails with ErrNoHandler.
//   - Watch callbacks fire after every membership epoch change, serialised
//     and monotone in epoch. A static-membership transport may never fire
//     them.
type Transport interface {
	// Handle registers the handler for one message kind on a node. A wire
	// transport only accepts registrations for its own node.
	Handle(id NodeID, kind string, h Handler) error
	// Send delivers one request and returns the response, bounded by ctx.
	Send(ctx context.Context, from, to NodeID, kind string, payload any) (any, error)
	// Nodes returns all known node IDs, sorted. Every process of one
	// deployment must derive the identical universe (the placement ring is
	// seeded from it).
	Nodes() []NodeID
	// Watch registers a callback invoked after every membership epoch
	// change with the epoch of that change.
	Watch(fn func(epoch int64))
	// Epoch returns the current membership epoch.
	Epoch() int64
	// Observer returns the transport's observability scope; components
	// built over the transport inherit it by default.
	Observer() *obs.Observer
}

// Oracle is the simulation-only ground-truth topology surface. Only the
// simulated Network implements it: a real-wire transport has no global
// topology oracle, so everything that consults Oracle must degrade
// gracefully when the assertion fails.
//
// Exactly two consumers are allowed (audited in DESIGN.md §13):
//
//   - group.Membership's topology-oracle mode, which computes every node's
//     view from the ground truth in one pass. Without an Oracle the
//     membership service falls back to the static full view, and real
//     failure handling requires detector-driven membership.
//   - detect.Detector's metric-attribution shadow (false-suspicion and
//     detection/rejoin-latency accounting). Detection decisions themselves
//     never read it; without an Oracle those metrics are simply not
//     recorded.
//
// Protocol code (replication, naming, core, node, reconcile) must never
// type-assert for Oracle: membership knowledge flows exclusively through
// group views fed by a group.ViewSource.
type Oracle interface {
	// Connected reports whether two nodes can currently communicate.
	Connected(a, b NodeID) bool
	// Reachable reports whether to is reachable from from (single-peer
	// fast path of ReachableFrom).
	Reachable(from, to NodeID) bool
	// ReachableFrom returns the nodes reachable from the given node
	// (including itself when up), sorted.
	ReachableFrom(id NodeID) []NodeID
}

// The simulated Network provides both surfaces.
var (
	_ Transport = (*Network)(nil)
	_ Oracle    = (*Network)(nil)
)
