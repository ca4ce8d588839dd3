package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
)

// Quorum tail-latency experiment: under per-link jitter, a full propagation
// round is as slow as the slowest of N-1 links — with even a small
// probability of a slow link, almost every commit pays the tail. A
// threshold commit returns at the K-th fastest ack instead, so its p99
// stays near the base latency. This experiment injects the default jitter
// profile and reports p50/p99 commit latency for the quorum protocol
// against the full-round baseline.

// The default jitter profile: most messages pay the base hop, a small
// fraction stalls for the tail (a GC pause, a retransmit). With 7 remote
// links and an 8% tail, ~44% of full rounds contain at least one stall
// while a 4-of-7 threshold return needs four concurrent stalls (~0.1%).
const (
	jitterBase     = 150 * time.Microsecond
	jitterTail     = 5 * time.Millisecond
	jitterTailProb = 0.08
	jitterSeed     = 42
)

// quorumJitter builds the deterministic per-link jitter injector. The seeded
// PRNG sits behind a mutex: LatencyFunc is called from concurrent sends.
func quorumJitter(seed int64) transport.LatencyFunc {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(from, to transport.NodeID, kind string) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		if rng.Float64() < jitterTailProb {
			return jitterTail
		}
		return jitterBase
	}
}

// quorumTailMeasurement aggregates one protocol's commit-latency samples.
type quorumTailMeasurement struct {
	P50, P99     time.Duration
	QuorumRounds int64 // commits shipped with threshold-return semantics
	EarlyReturns int64 // threshold rounds that left stragglers behind
}

// measureQuorumTail times iters single-object commits on a size-node cluster
// under the jitter profile and returns the latency percentiles. proto nil
// selects the full-round P4 baseline (same batch wire format, full
// wait-for-all round); a Quorum protocol ships with threshold return.
func measureQuorumTail(cfg Config, size, iters int, proto replication.Protocol) (quorumTailMeasurement, error) {
	var m quorumTailMeasurement
	// A private observer isolates the round counters; the jitter profile
	// replaces the configured network cost so both modes measure the same
	// simulated network.
	cfg.Obs = obs.New()
	cfg.NetCost = 0
	c, err := newBenchCluster(cfg, clusterOpts{size: size, disableCCM: true, protocol: proto}, constraint.HardInvariant)
	if err != nil {
		return m, err
	}
	defer c.Stop()
	n := c.Node(0)
	const oid = object.ID("tail0")
	if err := n.Create(beanClass, oid, object.State{"value": int64(0)}, c.AllReplicas(n.ID)); err != nil {
		return m, fmt.Errorf("create %s: %w", oid, err)
	}
	// Jitter starts after setup, so population cost stays out of the tail.
	c.Net.SetLatency(quorumJitter(jitterSeed))
	defer c.Net.SetLatency(nil)

	var hist obs.Histogram
	for i := 0; i < iters; i++ {
		d, err := fanOutCommit(n, []object.ID{oid}, i)
		if err != nil {
			return m, err
		}
		hist.Observe(d)
	}
	// Join the background straggler sends before reading the counters (and
	// before Stop tears the cluster down under them).
	n.Repl.WaitPropagation()
	snap := hist.Snapshot()
	m.P50 = snap.Percentile(0.50)
	m.P99 = snap.Percentile(0.99)
	m.QuorumRounds = sumCounters(cfg.Obs, ".replication.quorum.rounds")
	m.EarlyReturns = sumCounters(cfg.Obs, ".group.multicast.threshold.early")
	return m, nil
}

// quorumBenchIters picks the sample count: enough for a meaningful p99 at
// the default scale, bounded for quick runs.
func quorumBenchIters(cfg Config) int {
	iters := cfg.Ops
	if iters < 20 {
		iters = 20
	}
	if iters > 300 {
		iters = 300
	}
	return iters
}

// runQuorumTail regenerates the threshold-vs-full-round tail-latency
// comparison on an 8-node cluster at the majority threshold.
func runQuorumTail(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	const size = 8
	iters := quorumBenchIters(cfg)
	res := &Result{ID: "exp-quorum", Title: "quorum commit tail latency under per-link jitter",
		Columns: []string{"p50_us", "p99_us"}}

	quorum, err := measureQuorumTail(cfg, size, iters, replication.Quorum{Threshold: cfg.QuorumThreshold})
	if err != nil {
		return nil, fmt.Errorf("quorum: %w", err)
	}
	full, err := measureQuorumTail(cfg, size, iters, nil)
	if err != nil {
		return nil, fmt.Errorf("full round: %w", err)
	}
	label := fmt.Sprintf("quorum (majority of %d)", size)
	if cfg.QuorumThreshold > 0 {
		label = fmt.Sprintf("quorum (%d of %d)", cfg.QuorumThreshold, size)
	}
	res.AddRow(label,
		float64(quorum.P50.Nanoseconds())/1e3, float64(quorum.P99.Nanoseconds())/1e3)
	res.AddRow("full round (P4)",
		float64(full.P50.Nanoseconds())/1e3, float64(full.P99.Nanoseconds())/1e3)
	if quorum.P99 > 0 {
		res.AddNote("p99 ratio full/quorum = %.1fx over %d commits per mode", float64(full.P99)/float64(quorum.P99), iters)
	}
	res.AddNote("jitter profile: base %s, tail %s at %.0f%% per link; %d of %d threshold rounds returned before the last straggler",
		jitterBase, jitterTail, jitterTailProb*100, quorum.EarlyReturns, quorum.QuorumRounds)
	return res, nil
}
