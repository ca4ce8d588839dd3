package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dedisys/internal/simtime"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x.count") != c {
		t.Fatal("Counter is not get-or-create by name")
	}
	g := r.Gauge("x.depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	c.Reset()
	g.Reset()
	if c.Load() != 0 || g.Load() != 0 {
		t.Fatal("reset did not zero metrics")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // bucket 0: < 1µs
	h.Observe(3 * time.Microsecond)  // [2µs, 4µs)
	h.Observe(3 * time.Microsecond)
	h.Observe(10 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	wantSum := 500*time.Nanosecond + 2*3*time.Microsecond + 10*time.Millisecond
	if s.Sum != wantSum {
		t.Fatalf("sum = %s, want %s", s.Sum, wantSum)
	}
	counts := make(map[time.Duration]int64)
	for _, b := range s.Buckets {
		counts[b.UpperBound] = b.Count
	}
	if counts[time.Microsecond] != 1 {
		t.Fatalf("sub-µs bucket = %d, want 1", counts[time.Microsecond])
	}
	if counts[4*time.Microsecond] != 2 {
		t.Fatalf("4µs bucket = %d, want 2", counts[4*time.Microsecond])
	}
	if counts[16384*time.Microsecond] != 1 {
		t.Fatalf("16.384ms bucket = %d, want 1 (buckets: %+v)", counts[16384*time.Microsecond], s.Buckets)
	}
}

func TestHistogramPercentile(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Percentile(0.99); got != 0 {
		t.Fatalf("empty percentile = %s, want 0", got)
	}

	// Single sample: every rank lands in its bucket; the interpolated value
	// is the bucket's upper bound regardless of p.
	var one Histogram
	one.Observe(3 * time.Microsecond) // bucket [2µs, 4µs)
	s := one.Snapshot()
	for _, p := range []float64{0.01, 0.5, 1, 1.5} {
		if got := s.Percentile(p); got != 4*time.Microsecond {
			t.Fatalf("single-sample p%.0f = %s, want 4µs", p*100, got)
		}
	}

	// Uniform 1..100ms: percentiles must land inside (and interpolate
	// within) the log-2 bucket holding the rank, and must be monotone in p.
	var u Histogram
	for i := 1; i <= 100; i++ {
		u.Observe(time.Duration(i) * time.Millisecond)
	}
	s = u.Snapshot()
	p50, p95, p99 := s.Percentile(0.50), s.Percentile(0.95), s.Percentile(0.99)
	if p50 <= 32768*time.Microsecond || p50 > 65536*time.Microsecond {
		t.Fatalf("p50 = %s, want within (32.768ms, 65.536ms]", p50)
	}
	if p99 <= 65536*time.Microsecond || p99 > 131072*time.Microsecond {
		t.Fatalf("p99 = %s, want within (65.536ms, 131.072ms]", p99)
	}
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("percentiles not monotone: p50=%s p95=%s p99=%s", p50, p95, p99)
	}

	// The sub-µs bucket interpolates from zero: two of four samples below
	// the median puts p50 exactly halfway up the 1µs bucket.
	var sub Histogram
	for i := 0; i < 4; i++ {
		sub.Observe(500 * time.Nanosecond)
	}
	if got := sub.Snapshot().Percentile(0.5); got != 500*time.Nanosecond {
		t.Fatalf("sub-µs p50 = %s, want 500ns", got)
	}

	// The unbounded top bucket reports its lower bound, not +inf.
	var big Histogram
	big.Observe(3000 * time.Second)
	if got := big.Snapshot().Percentile(1); got != BucketBound(histBuckets-2) {
		t.Fatalf("overflow p100 = %s, want %s", got, BucketBound(histBuckets-2))
	}
}

// TestHistogramSelfTiming charges a known simulated cost through the shared
// simtime helper and verifies the histogram observes it in the right order
// of magnitude — the calibration contract between the cost model and the
// latency instrumentation.
func TestHistogramSelfTiming(t *testing.T) {
	var h Histogram
	const cost = 100 * time.Microsecond
	for i := 0; i < 8; i++ {
		start := time.Now()
		simtime.Charge(cost)
		h.Observe(time.Since(start))
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if mean := time.Duration(h.sum.Load() / h.count.Load()); mean < cost || mean > 100*cost {
		t.Fatalf("mean %s outside plausible range for a %s charge", mean, cost)
	}
}

// TestRegistryParallelWriters hammers one registry from parallel goroutines
// resolving and updating overlapping metric names; run with -race.
func TestRegistryParallelWriters(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared.count").Inc()
				r.Counter(fmt.Sprintf("own.%d", w%4)).Add(2)
				r.Gauge("shared.gauge").Set(int64(i))
				r.Histogram("shared.hist").Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.count").Load(); got != workers*500 {
		t.Fatalf("shared.count = %d, want %d", got, workers*500)
	}
	if got := r.Histogram("shared.hist").Count(); got != workers*500 {
		t.Fatalf("shared.hist count = %d, want %d", got, workers*500)
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit("n1", EventViewChange, "ignored")
	if tr.Len() != 0 {
		t.Fatalf("disabled tracer recorded %d events", tr.Len())
	}
	tr.SetEnabled(true)
	tr.Emit("n1", EventViewChange, "recorded")
	if tr.Len() != 1 {
		t.Fatalf("enabled tracer recorded %d events, want 1", tr.Len())
	}
}

func TestTracerRingWrapKeepsNewest(t *testing.T) {
	tr := NewTracer(4)
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		tr.Emit("n1", EventMessageSend, fmt.Sprintf("msg %d", i))
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	for i, e := range events {
		want := fmt.Sprintf("msg %d", 6+i)
		if e.Detail != want {
			t.Fatalf("event %d detail = %q, want %q", i, e.Detail, want)
		}
	}
	if events[0].Seq >= events[3].Seq {
		t.Fatal("events not in emission order")
	}
}

// TestTracerSinksAndConcurrency: four goroutines emit 200 events into one
// tracer; the ring holds every one, each goroutine's in its emission order,
// and no sequence number twice.
func TestTracerSinksAndConcurrency(t *testing.T) {
	tr := NewTracer(256)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Emit(fmt.Sprintf("n%d", w), EventThreatAccepted, fmt.Sprint(i))
			}
		}(w)
	}
	wg.Wait()
	events := tr.Events()
	if len(events) != 200 {
		t.Fatalf("tracer holds %d events, want 200", len(events))
	}
	next := map[string]int{}
	seqs := map[int64]bool{}
	for _, e := range events {
		if e.Type != EventThreatAccepted || e.Detail != fmt.Sprint(next[e.Node]) {
			t.Fatalf("event %+v out of %s's emission order (want detail %d)", e, e.Node, next[e.Node])
		}
		next[e.Node]++
		if seqs[e.Seq] {
			t.Fatalf("sequence number %d twice", e.Seq)
		}
		seqs[e.Seq] = true
	}
}

func TestObserverScoping(t *testing.T) {
	o := New()
	n1 := o.Named("n1")
	n2 := o.Named("n2")
	n1.Counter("core.validations").Add(3)
	n2.Counter("core.validations").Add(5)
	s := o.Snapshot()
	if s.Counters["n1.core.validations"] != 3 || s.Counters["n2.core.validations"] != 5 {
		t.Fatalf("scoped counters wrong: %+v", s.Counters)
	}
	o.Tracer().SetEnabled(true)
	n1.Emit(EventModeTransition, "healthy -> degraded")
	events := o.Tracer().Events()
	if len(events) != 1 || events[0].Node != "n1" {
		t.Fatalf("scoped event wrong: %+v", events)
	}
}

func TestSnapshotWriters(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g").Set(9)
	r.Histogram("h").Observe(5 * time.Microsecond)
	var text bytes.Buffer
	r.Snapshot().WriteText(&text)
	out := text.String()
	if !strings.Contains(out, "a.count") || !strings.Contains(out, "b.count") {
		t.Fatalf("text dump missing counters:\n%s", out)
	}
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Fatal("text dump not sorted")
	}
}
