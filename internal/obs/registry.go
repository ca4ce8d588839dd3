package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing (resettable) event count. The zero
// value is ready to use; all methods are safe for concurrent use and cost a
// single atomic operation, making counters suitable for hot paths.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter (experiment harnesses reset between phases).
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a settable instantaneous value (queue depth, mode, view size).
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.v.Store(0) }

// histBuckets is the fixed bucket count of every histogram: bucket i counts
// observations with 2^(i-1)µs <= d < 2^iµs (bucket 0 is <1µs), covering
// sub-microsecond up to ~35 minutes on a log-2 scale.
const histBuckets = 32

// Histogram records latency observations in fixed log-scale buckets. All
// methods are lock-free; Observe costs three atomic adds.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// bucketFor maps a duration to its log-2 microsecond bucket.
func bucketFor(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(d / time.Microsecond))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// BucketBound returns the exclusive upper bound of bucket i.
func BucketBound(i int) time.Duration {
	if i <= 0 {
		return time.Microsecond
	}
	if i >= histBuckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketFor(d)].Add(1)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     time.Duration `json:"sumNs"`
	Mean    time.Duration `json:"meanNs"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	// UpperBound is the bucket's exclusive upper bound.
	UpperBound time.Duration `json:"le"`
	Count      int64         `json:"count"`
}

// Percentile returns the latency at or below which fraction p (0 < p <= 1)
// of the recorded samples fall, linearly interpolated within the log-2
// bucket holding the target rank. The result is an estimate with the
// bucket's resolution (a factor-of-two band), which is what a latency gate
// needs: ratios between percentiles of different distributions are
// preserved. Returns 0 without samples; p is clamped to (0, 1]. For the
// unbounded top bucket the bucket's lower bound is returned (conservative).
func (s HistogramSnapshot) Percentile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		if cum+b.Count < rank {
			cum += b.Count
			continue
		}
		lower := bucketLowerBound(b.UpperBound)
		if b.UpperBound >= BucketBound(histBuckets-1) {
			return lower
		}
		frac := float64(rank-cum) / float64(b.Count)
		return lower + time.Duration(frac*float64(b.UpperBound-lower))
	}
	// Unreachable with a consistent snapshot (buckets sum to Count).
	return s.Mean
}

// bucketLowerBound is the inclusive lower bound of the bucket with the given
// exclusive upper bound.
func bucketLowerBound(upper time.Duration) time.Duration {
	if upper <= time.Microsecond {
		return 0
	}
	if upper >= BucketBound(histBuckets-1) {
		return BucketBound(histBuckets - 2)
	}
	return upper / 2
}

// Snapshot copies the histogram, keeping only non-empty buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: time.Duration(h.sum.Load())}
	if s.Count > 0 {
		s.Mean = s.Sum / time.Duration(s.Count)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{UpperBound: BucketBound(i), Count: n})
		}
	}
	return s
}

// Registry is a named collection of counters, gauges and histograms. Metric
// handles are get-or-create by name: asking twice for the same name returns
// the same instance, so components can resolve their handles once at
// construction time and pay only atomic operations afterwards.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	h = &Histogram{}
	r.histograms[name] = h
	return h
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Reset zeroes every registered metric (experiments reset between phases).
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Reset()
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// Snapshot is a point-in-time copy of a registry's metrics.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// WriteText renders the snapshot as sorted "name value" lines.
func (s Snapshot) WriteText(w io.Writer) {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "counter   %-48s %d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "gauge     %-48s %d\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(w, "histogram %-48s count=%d mean=%s", name, h.Count, h.Mean)
		for _, b := range h.Buckets {
			fmt.Fprintf(w, " le(%s)=%d", b.UpperBound, b.Count)
		}
		fmt.Fprintln(w)
	}
}
