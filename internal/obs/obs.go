// Package obs is the middleware's unified observability layer: a
// zero-dependency metrics registry (counters, gauges, latency histograms
// with fixed log-scale buckets) plus a structured event tracer (a bounded
// ring buffer of typed events with pluggable sinks).
//
// Adaptive dependability requires the middleware to observe its own health —
// mode transitions, threat counts, staleness, reconciliation progress — to
// trade integrity against availability. Every layer (transport, group,
// replication, core, threat, tx, reconcile) emits through this package, and
// the registry is the one way to read a count: the Chapter 5 experiment
// tables read it, as a process-wide registry dump does, so the two always
// agree.
//
// Cost discipline: metric updates are single atomic operations, permitted on
// hot paths; event emission allocates and is therefore gated behind
// Observer.Tracing / Tracer.Enabled, which is one atomic load when off.
package obs

// Observer bundles a metric registry and an event tracer with a naming
// scope. Nodes share one registry/tracer pair; Named derives per-node scopes
// that prefix metric names ("n1.core.validations") and stamp events with the
// node ID, so one process-wide dump covers a whole simulated cluster.
type Observer struct {
	reg    *Registry
	tracer *Tracer
	prefix string
	node   string
}

// New creates an observer with a fresh registry and a (disabled) tracer.
func New() *Observer {
	return &Observer{reg: NewRegistry(), tracer: NewTracer(0)}
}

// Named derives a scope sharing this observer's registry and tracer: metric
// names gain the "node." prefix and events carry the node ID.
func (o *Observer) Named(node string) *Observer {
	return &Observer{reg: o.reg, tracer: o.tracer, prefix: node + ".", node: node}
}

// Registry returns the underlying (shared) registry.
func (o *Observer) Registry() *Registry { return o.reg }

// Tracer returns the underlying (shared) tracer.
func (o *Observer) Tracer() *Tracer { return o.tracer }

// Counter resolves a counter in this observer's scope.
func (o *Observer) Counter(name string) *Counter { return o.reg.Counter(o.prefix + name) }

// Gauge resolves a gauge in this observer's scope.
func (o *Observer) Gauge(name string) *Gauge { return o.reg.Gauge(o.prefix + name) }

// Histogram resolves a histogram in this observer's scope.
func (o *Observer) Histogram(name string) *Histogram { return o.reg.Histogram(o.prefix + name) }

// Tracing reports whether event emission is enabled. Call sites building
// non-trivial event details must check it first; the check is one atomic
// load, cheap enough for hot paths.
func (o *Observer) Tracing() bool { return o.tracer.Enabled() }

// Emit records one event stamped with this observer's node.
func (o *Observer) Emit(typ EventType, detail string) { o.tracer.Emit(o.node, typ, detail) }

// Snapshot copies the shared registry's metrics.
func (o *Observer) Snapshot() Snapshot { return o.reg.Snapshot() }
