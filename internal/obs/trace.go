package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventType classifies one structured trace event.
type EventType string

// Event types emitted by the middleware layers.
const (
	// EventViewChange records an installed group membership view.
	EventViewChange EventType = "view-change"
	// EventModeTransition records a node's major-state change
	// (healthy / degraded / reconciling, Figure 1.4).
	EventModeTransition EventType = "mode-transition"
	// EventThreatDetected records a detected consistency threat entering
	// negotiation (Figure 3.3).
	EventThreatDetected EventType = "threat-detected"
	// EventThreatAccepted records an accepted (traded) consistency threat.
	EventThreatAccepted EventType = "threat-accepted"
	// EventThreatRejected records a rejected threat (transaction vetoed).
	EventThreatRejected EventType = "threat-rejected"
	// EventConstraintViolated records a reliable constraint violation.
	EventConstraintViolated EventType = "constraint-violated"
	// EventReconcilePhase records the start/end of a reconciliation phase
	// (replica or constraint, Figure 4.6).
	EventReconcilePhase EventType = "reconcile-phase"
	// EventMessageSend records a delivered transport message.
	EventMessageSend EventType = "message-send"
	// EventMessageDrop records a message lost by the drop injector.
	EventMessageDrop EventType = "message-drop"
	// EventLockTimeout records an object-lock acquisition timeout.
	EventLockTimeout EventType = "lock-timeout"
	// EventReplicaConflict records a resolved write-write replica conflict.
	EventReplicaConflict EventType = "replica-conflict"
	// EventSuspicion records a failure detector starting to suspect a peer
	// (heartbeat silence exceeded the suspicion policy's tolerance).
	EventSuspicion EventType = "suspicion"
	// EventRejoin records a failure detector re-admitting a previously
	// suspected peer after its heartbeats resumed.
	EventRejoin EventType = "rejoin"
	// EventNamingSyncSkip records a naming-service binding sync that was
	// skipped during reconciliation because the peer became unreachable
	// again (it catches up on a later pass).
	EventNamingSyncSkip EventType = "naming-sync-skip"
)

// Event is one structured trace record.
type Event struct {
	// Seq orders events globally within one tracer.
	Seq int64 `json:"seq"`
	// Time is the wall-clock emission time.
	Time time.Time `json:"time"`
	// Node names the emitting node ("" for shared components).
	Node string `json:"node,omitempty"`
	// Type classifies the event.
	Type EventType `json:"type"`
	// Detail is a human-readable description of the event.
	Detail string `json:"detail,omitempty"`
}

// String renders the event as one trace line.
func (e Event) String() string {
	node := e.Node
	if node == "" {
		node = "-"
	}
	return fmt.Sprintf("%8d %s %-4s %-18s %s", e.Seq, e.Time.Format("15:04:05.000000"), node, e.Type, e.Detail)
}

// DefaultTraceCapacity is the default ring-buffer size of a tracer.
const DefaultTraceCapacity = 4096

// Tracer records structured events into a bounded ring buffer. Emission is disabled by default: a disabled
// tracer costs one atomic load per emission site, keeping hot paths within
// noise when tracing is off.
type Tracer struct {
	enabled atomic.Bool
	seq     atomic.Int64

	mu    sync.Mutex
	ring  []Event
	next  int // ring index of the next write
	total int // events ever recorded (caps at len(ring) for wrap detection)
}

// NewTracer creates a tracer with the given ring capacity (0 uses
// DefaultTraceCapacity). The tracer starts disabled.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// SetEnabled switches event recording on or off.
func (t *Tracer) SetEnabled(enabled bool) { t.enabled.Store(enabled) }

// Enabled reports whether events are currently recorded. Hot paths must
// check it before building event detail strings.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Emit records one event when the tracer is enabled.
func (t *Tracer) Emit(node string, typ EventType, detail string) {
	if !t.enabled.Load() {
		return
	}
	e := Event{Seq: t.seq.Add(1), Time: time.Now(), Node: node, Type: typ, Detail: detail}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring[t.next] = e
	t.next = (t.next + 1) % len(t.ring)
	if t.total < len(t.ring) {
		t.total++
	}
}

// Events returns the recorded events in emission order (oldest first). The
// ring keeps only the most recent capacity events.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.total)
	if t.total < len(t.ring) {
		out = append(out, t.ring[:t.total]...)
		return out
	}
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Len returns the number of events currently held in the ring.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Reset drops all recorded events.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next, t.total = 0, 0
}

// WriteText renders the recorded events as one line each.
func (t *Tracer) WriteText(w io.Writer) {
	for _, e := range t.Events() {
		fmt.Fprintln(w, e.String())
	}
}
