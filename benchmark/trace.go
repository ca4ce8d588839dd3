package main

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dedisys/internal/gossip"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

// Span names. Handler spans are "transport.handle.<kind>" with the dots of
// the message kind turned into underscores, registered on demand.
const (
	spanOp = iota
	spanBegin
	spanInvoke
	spanCommit
	spanSend
	spanFixed // first dynamically registered name
)

var fixedSpanNames = [spanFixed]string{"op", "tx.begin", "node.invoke_tx", "tx.commit", "transport.send"}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created.
type span struct {
	op     uint64 // operation the span belongs to; 0 = not attributable
	id     uint64
	parent uint64
	name   int
	class  opClass // set on op spans only
	start  int64
	end    int64
}

// tracer collects spans in memory and counts at the transport boundary.
// Recording is switched on only for the traced pass; while off the
// decorators forward untouched.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Uint64

	namesMu sync.Mutex
	names   []string

	shards [16]struct {
		mu    sync.Mutex
		spans []span
	}

	// inflight is the number of sends begun and not yet returned; counters
	// read while it is non-zero would miss straggler work.
	inflight atomic.Int64

	// A bounded sample of request/reply payload pairs, sized after the pass
	// so gob encoding never runs inside a span.
	sampleMu sync.Mutex
	samples  []payloadPair
	// batch is one recorded repl.batch request, the input of the wire probes.
	batch any
}

type payloadPair struct{ req, reply any }

const maxPayloadSamples = 2048

func newTracer() *tracer {
	return &tracer{t0: time.Now(), names: append([]string(nil), fixedSpanNames[:]...)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) nameID(name string) int {
	t.namesMu.Lock()
	defer t.namesMu.Unlock()
	for i, n := range t.names {
		if n == name {
			return i
		}
	}
	t.names = append(t.names, name)
	return len(t.names) - 1
}

func (t *tracer) nameOf(id int) string {
	t.namesMu.Lock()
	defer t.namesMu.Unlock()
	return t.names[id]
}

func (t *tracer) record(s span) {
	sh := &t.shards[s.op%uint64(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// all returns every recorded span ordered by (op, start).
func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].op != out[j].op {
			return out[i].op < out[j].op
		}
		return out[i].start < out[j].start
	})
	return out
}

// opState travels in the context of one traced operation. The driver moves
// cur to the span that is about to call into the middleware, so a send
// issued below it is parented correctly even though the transaction's
// context is fixed at Begin.
type opState struct {
	op  uint64
	cur atomic.Uint64
}

type opKey struct{}

func withOp(ctx context.Context, st *opState) context.Context {
	return context.WithValue(ctx, opKey{}, st)
}

// tracedPayload carries the causing span across the transport: handlers
// receive no context, and on the wire the request leaves the goroutine.
type tracedPayload struct {
	Op      uint64
	Span    uint64
	Payload any
}

func init() { gob.Register(tracedPayload{}) }

// traceCore is the part of the decorator shared by both transports.
type traceCore struct {
	tr    *tracer
	inner transport.Transport
}

func (c traceCore) send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	t := c.tr
	if !t.on.Load() {
		return c.inner.Send(ctx, from, to, kind, payload)
	}
	s := span{id: t.nextID.Add(1), name: spanSend}
	if st, ok := ctx.Value(opKey{}).(*opState); ok {
		s.op, s.parent = st.op, st.cur.Load()
	}
	t.inflight.Add(1)
	s.start = t.now()
	reply, err := c.inner.Send(ctx, from, to, kind, tracedPayload{Op: s.op, Span: s.id, Payload: payload})
	s.end = t.now()
	t.inflight.Add(-1)
	t.record(s)
	if err != nil {
		return reply, err
	}
	t.sampleMu.Lock()
	if len(t.samples) < maxPayloadSamples {
		t.samples = append(t.samples, payloadPair{payload, reply})
	}
	if t.batch == nil && kind == "repl.batch" {
		t.batch = payload
	}
	t.sampleMu.Unlock()
	return reply, err
}

func (c traceCore) handle(id transport.NodeID, kind string, h transport.Handler) error {
	t := c.tr
	name := t.nameID("transport.handle." + kindName(kind))
	return c.inner.Handle(id, kind, func(from transport.NodeID, payload any) (any, error) {
		tp, ok := payload.(tracedPayload)
		if !ok {
			return h(from, payload)
		}
		s := span{op: tp.Op, id: t.nextID.Add(1), parent: tp.Span, name: name, start: t.now()}
		reply, err := h(from, tp.Payload)
		s.end = t.now()
		t.record(s)
		return reply, err
	})
}

func kindName(kind string) string {
	b := []byte(kind)
	for i, ch := range b {
		if ch == '.' {
			b[i] = '_'
		}
	}
	return string(b)
}

// simTraced decorates the simulated network. Embedding the concrete
// *transport.Network keeps the Oracle methods and the fault-injection
// surface, so membership stays oracle-driven under the decorator.
type simTraced struct {
	*transport.Network
	core traceCore
}

func (s *simTraced) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	return s.core.send(ctx, from, to, kind, payload)
}

func (s *simTraced) Handle(id transport.NodeID, kind string, h transport.Handler) error {
	return s.core.handle(id, kind, h)
}

// wireTraced decorates one wire endpoint; like the Wire it wraps it offers
// no Oracle.
type wireTraced struct {
	*wiretransport.Wire
	core traceCore
}

func (w *wireTraced) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	return w.core.send(ctx, from, to, kind, payload)
}

func (w *wireTraced) Handle(id transport.NodeID, kind string, h transport.Handler) error {
	return w.core.handle(id, kind, h)
}

var (
	_ transport.Transport = (*simTraced)(nil)
	_ transport.Oracle    = (*simTraced)(nil)
	_ transport.Transport = (*wireTraced)(nil)
)

// attribute splits one operation's wall time among its spans. spans[0] is
// the op span; the rest are its descendants, each clipped to its parent's
// interval (a straggler send outlives the commit that issued it, and is then
// off the path the caller waits on). Every instant belongs to the active
// spans that have no active child — which for a sequential call chain is
// exactly "duration minus the interval the children cover" — and instants
// where several such spans run in parallel (the two sends of a commit) are
// shared equally, so parallel children are neither subtracted twice from
// their parent nor counted twice in the total. The returned shares are
// indexed like spans and sum to the op's duration; shares[0] is the time no
// child accounts for.
func attribute(spans []span) []float64 {
	type iv struct{ start, end int64 }
	index := make(map[uint64]int, len(spans))
	for i, s := range spans {
		index[s.id] = i
	}
	parent := make([]int, len(spans))
	for i, s := range spans {
		p, ok := index[s.parent]
		if !ok || p == i {
			p = 0 // a span whose cause was not recorded is still the op's
		}
		parent[i] = p
	}
	clip := make([]iv, len(spans))
	done := make([]bool, len(spans))
	clip[0], done[0] = iv{spans[0].start, spans[0].end}, true
	var clipOf func(i int) iv
	clipOf = func(i int) iv {
		if !done[i] {
			done[i] = true // set first: a parent cycle cannot recurse forever
			in := clipOf(parent[i])
			c := iv{max(spans[i].start, in.start), min(spans[i].end, in.end)}
			if c.end < c.start {
				c.end = c.start
			}
			clip[i] = c
		}
		return clip[i]
	}
	cuts := make([]int64, 0, 2*len(spans))
	for i := range spans {
		c := clipOf(i)
		cuts = append(cuts, c.start, c.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	shares := make([]float64, len(spans))
	active := func(i int, lo, hi int64) bool { return clip[i].start <= lo && hi <= clip[i].end }
	hasChild := make([]bool, len(spans))
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi == lo {
			continue
		}
		clear(hasChild)
		for i := 1; i < len(spans); i++ {
			if active(i, lo, hi) {
				hasChild[parent[i]] = true
			}
		}
		leaves := 0
		for i := range spans {
			if active(i, lo, hi) && !hasChild[i] {
				leaves++
			}
		}
		for i := range spans {
			if active(i, lo, hi) && !hasChild[i] {
				shares[i] += float64(hi-lo) / float64(leaves)
			}
		}
	}
	return shares
}

// layerTimes is the traced pass reduced to one row per (op class, span
// name): the mean and median of the per-operation exclusive time, in µs.
type layerTimes struct {
	ops  [numClasses]int
	mean [numClasses]map[string]float64
	p50  [numClasses]map[string]float64
}

const unattributed = "op.unattributed"

// reduce runs attribute over every op in all (see tracer.all). Row names
// are span names; the op span's own share is reported as op.unattributed
// and its full duration as op.
func (t *tracer) reduce(all []span) layerTimes {
	var per [numClasses]map[string][]float64
	for c := range per {
		per[c] = make(map[string][]float64)
	}
	var lt layerTimes
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].op == all[i].op {
			j++
		}
		group := all[i:j]
		i = j
		if group[0].op == 0 {
			continue
		}
		// The op span starts first and contains the others; find it.
		root := -1
		for k, s := range group {
			if s.name == spanOp {
				root = k
				break
			}
		}
		if root < 0 {
			continue
		}
		group[0], group[root] = group[root], group[0]
		shares := attribute(group)
		class := group[0].class
		lt.ops[class]++
		row := map[string]float64{
			"op":         float64(group[0].end-group[0].start) / 1e3,
			unattributed: shares[0] / 1e3,
		}
		for k := 1; k < len(group); k++ {
			row[t.nameOf(group[k].name)] += shares[k] / 1e3
		}
		for name, v := range row {
			per[class][name] = append(per[class][name], v)
		}
	}
	for c := range per {
		lt.mean[c] = make(map[string]float64)
		lt.p50[c] = make(map[string]float64)
		for name, vals := range per[c] {
			// A span absent from an op contributed zero to it.
			for len(vals) < lt.ops[c] {
				vals = append(vals, 0)
			}
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			lt.mean[c][name] = sum / float64(len(vals))
			sort.Float64s(vals)
			lt.p50[c][name] = nearestRank(vals, 0.50)
		}
	}
	return lt
}

// writeSpans dumps the spans as one JSON object per line.
func (t *tracer) writeSpans(workload string, spans []span) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"op":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.op, s.id, s.parent, t.nameOf(s.name), s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// bytesPerSend is the mean gob size of the sampled requests plus replies —
// what the same traffic would weigh on the wire, whichever transport ran.
func (t *tracer) bytesPerSend() float64 {
	t.sampleMu.Lock()
	defer t.sampleMu.Unlock()
	if len(t.samples) == 0 {
		return 0
	}
	var total int64
	for _, p := range t.samples {
		total += gossip.WireSize(p.req) + gossip.WireSize(p.reply)
	}
	return float64(total) / float64(len(t.samples))
}
