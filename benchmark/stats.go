package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// nearestRank returns the p-quantile (0 < p <= 1) of sorted exact samples:
// the smallest value with at least a fraction p of the samples at or below
// it. No interpolation, no buckets.
func nearestRank[T any](sorted []T, p float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// rec is one completed operation: when it ended (µs since the window
// opened) and how long it took (ns, saturating at ~4.29s).
type rec struct {
	endUs uint32
	latNs uint32
}

func latNs(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// minSliceSamples is the fewest samples a one-second slice needs for its
// own p99 to count (the trailing partial slice of a window is dropped).
const minSliceSamples = 100

// latencySummary is the p50 and the p99 of a window, each the median over
// the window's one-second slices of the slice's own percentile: a GC cycle,
// a scheduler hiccup or a few seconds of a noisy neighbour land in a
// minority of the slices and cannot move either.
type latencySummary struct {
	samples int
	slices  int
	p50us   float64
	p99us   float64
	p50s    []float64 // per slice
	p99s    []float64
}

func summarize(recs []rec) latencySummary {
	s := latencySummary{samples: len(recs)}
	if len(recs) == 0 {
		return s
	}
	bySlice := make(map[uint32][]uint32)
	for _, r := range recs {
		k := r.endUs / 1e6
		bySlice[k] = append(bySlice[k], r.latNs)
	}
	var p50s, p99s []float64
	for _, ls := range bySlice {
		if len(ls) < minSliceSamples {
			continue
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		p50s = append(p50s, float64(nearestRank(ls, 0.50))/1e3)
		p99s = append(p99s, float64(nearestRank(ls, 0.99))/1e3)
	}
	if len(p99s) == 0 {
		// A window shorter than one populated slice: fall back to the whole.
		lats := make([]uint32, len(recs))
		for i, r := range recs {
			lats[i] = r.latNs
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p50s = append(p50s, float64(nearestRank(lats, 0.50))/1e3)
		p99s = append(p99s, float64(nearestRank(lats, 0.99))/1e3)
	}
	s.slices = len(p99s)
	s.p50us, s.p99us = median(p50s), median(p99s)
	s.p50s, s.p99s = p50s, p99s
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the acceptance harness computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
}

// cpuTime is the user plus system CPU time the process has consumed: the
// whole in-process cluster and the driver.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readUsage snapshots process CPU time and allocation totals. ReadMemStats
// stops the world, so it brackets windows and never runs inside one.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// sliceRates cuts a timed window at its CPU ticks and returns, per slice,
// the completed operations per second and the CPU microseconds per
// operation. The partial slice after the last tick is left out.
func sliceRates(recs *[numClasses][]rec, ticks []cpuTick) (opsPerSec, cpuUsPerOp []float64) {
	if len(ticks) < 2 {
		return nil, nil
	}
	counts := make([]int, len(ticks)-1)
	for cl := range recs {
		for _, r := range recs[cl] {
			at := time.Duration(r.endUs) * time.Microsecond
			// Ticks are a second apart: the slice index is at most one off
			// the whole second.
			k := min(int(at/time.Second), len(counts))
			for k > 0 && at < ticks[k].at {
				k--
			}
			for k < len(counts) && at >= ticks[k+1].at {
				k++
			}
			if k < len(counts) {
				counts[k]++
			}
		}
	}
	for k, n := range counts {
		if n == 0 {
			continue
		}
		opsPerSec = append(opsPerSec, float64(n)/(ticks[k+1].at-ticks[k].at).Seconds())
		cpuUsPerOp = append(cpuUsPerOp, float64(ticks[k+1].cpu-ticks[k].cpu)/1e3/float64(n))
	}
	return opsPerSec, cpuUsPerOp
}
