package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"dedisys/internal/bench/loadgen"
	"dedisys/internal/constraint"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/replication"
)

// Load engine experiment: the open-loop generator (internal/bench/loadgen)
// drives a mixed read/write workload across the four example applications
// against an 8-node in-process cluster sharded into 4 replica groups of 3
// under the quorum commit protocol — the configuration every other gate
// exercises in isolation, now under sustained load. Arrivals follow the
// schedule regardless of how fast the cluster drains them, and latency is
// measured from the scheduled arrival, so overload shows up as queueing
// delay in the tail instead of being absorbed by a slowing client
// (coordinated omission). Reads fan out round-robin over each object's
// replica set; writes go to the object's coordinator.

// The gate cluster shape: 8 nodes, 4 groups, replication factor 3.
const (
	loadClusterSize = 8
	loadGroups      = 4
	loadRF          = 3
)

// Pre-PR hot-path allocation baselines, measured by measureHotPathAllocs on
// the seed revision before the allocation-lean rework (see EXPERIMENTS.md,
// "Hot-path allocations"). The CI gate in TestLoadGate enforces that the
// current numbers sit at least allocReductionFloor below these.
const (
	baselineInvokeAllocs = 8.00
	baselineCommitAllocs = 44.88
	allocReductionFloor  = 0.30
)

// The replicated quorum write — measureReplicatedCommitAllocs — at the commit
// before entity state and version vectors became copy-on-write (Go 1.24;
// EXPERIMENTS.md, "Hot-path allocations"; 80.9 before the rework before
// that). TestReplicatedCommitAllocCeiling holds the current count under the
// ceiling: headroom over the 31.9 measured now for CI's Go 1.22, whose maps
// allocate differently, and below the 39.9 that copying the state and the
// vector again on each of the two replicas comes to.
const (
	baselineReplicatedCommitAllocs = 41.88
	replicatedCommitAllocCeiling   = 38.0
)

// loadAllocCeilings returns the gate thresholds derived from the baselines.
func loadAllocCeilings() (invoke, commit float64) {
	return baselineInvokeAllocs * (1 - allocReductionFloor),
		baselineCommitAllocs * (1 - allocReductionFloor)
}

// loadObjectID maps an application's object index into the shared bean
// population. Each application owns a disjoint ID range, so the mix spreads
// the hash placement across all replica groups.
func loadObjectID(app string, obj int) object.ID {
	return object.ID(fmt.Sprintf("%s%05d", app, obj))
}

// loadSpec derives the schedule from the config: one thousand operations per
// configured Ops unit (a million at the dissertation's default scale), with
// the object population split evenly across the application mix.
func loadSpec(cfg Config) loadgen.Spec {
	ops := cfg.LoadOps
	if ops <= 0 {
		ops = 1000 * cfg.Ops
	}
	rate := cfg.LoadRate
	if rate <= 0 {
		rate = 250000
	}
	ratio := cfg.LoadReadRatio
	if ratio <= 0 {
		ratio = 0.9
	}
	seed := cfg.LoadSeed
	if seed == 0 {
		seed = 42
	}
	mix := loadgen.DefaultMix()
	objects := cfg.Entities / len(mix)
	if objects < 1 {
		objects = 1
	}
	return loadgen.Spec{
		Ops:       ops,
		Rate:      rate,
		Poisson:   !cfg.LoadFixedRate,
		ReadRatio: ratio,
		Mix:       mix,
		Objects:   objects,
		Seed:      seed,
	}
}

// loadReadTarget picks the replica serving a read: round-robin over the
// object's replica set (any node under full replication). Reads execute on
// the chosen node's local replica — the group-local fast path.
func loadReadTarget(c *node.Cluster, id object.ID, rr *atomic.Uint64) *node.Node {
	k := int(rr.Add(1))
	if c.Ring == nil {
		return c.Node(k % len(c.Nodes))
	}
	_, replicas := c.Ring.Place(id)
	return c.ByID(replicas[k%len(replicas)])
}

// measureLoad builds the gate cluster, creates the spec's object population
// through each object's home node, then runs the schedule open-loop and
// returns the runner's summary. The caller's Config supplies the simulated
// hardware costs; the cluster shape is fixed to the gate configuration.
func measureLoad(cfg Config, spec loadgen.Spec, workers int) (loadgen.Summary, error) {
	var zero loadgen.Summary
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	sched, err := loadgen.Schedule(spec)
	if err != nil {
		return zero, err
	}
	c, err := newBenchCluster(cfg, clusterOpts{
		size:     loadClusterSize,
		groups:   loadGroups,
		rf:       loadRF,
		protocol: replication.Quorum{Threshold: cfg.QuorumThreshold},
	}, constraint.AsyncInvariant)
	if err != nil {
		return zero, err
	}
	defer c.Stop()

	mix := spec.Mix
	if len(mix) == 0 {
		mix = loadgen.DefaultMix()
	}
	objects := spec.Objects
	if objects < 1 {
		objects = 1
	}
	for _, m := range mix {
		for j := 0; j < objects; j++ {
			id := loadObjectID(m.App, j)
			home := shardHome(c, id)
			if err := home.Create(beanClass, id, object.State{"value": int64(0)}, c.AllReplicas(home.ID)); err != nil {
				return zero, fmt.Errorf("create %s: %w", id, err)
			}
		}
	}

	var rr atomic.Uint64
	r := loadgen.NewRunner(cfg.Obs.Registry(), workers, func(op loadgen.Op) error {
		id := loadObjectID(op.App, op.Obj)
		if op.Read {
			_, err := loadReadTarget(c, id, &rr).Invoke(id, "Value")
			return err
		}
		_, err := shardHome(c, id).Invoke(id, "SetValue", int64(op.Obj))
		return err
	})
	sum := r.Run(sched)
	// Join the quorum protocol's background straggler sends before Stop
	// tears the cluster down under them.
	for _, n := range c.Nodes {
		n.Repl.WaitPropagation()
	}
	return sum, nil
}

// usOf converts a duration to microseconds for result cells.
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runLoad regenerates the sustained-load table: per-class operation counts,
// throughput and queue-delay-inclusive latency percentiles, plus the
// hot-path allocation counts that set the throughput ceiling.
func runLoad(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	spec := loadSpec(cfg)
	sum, err := measureLoad(cfg, spec, cfg.LoadWorkers)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "exp-load", Title: "open-loop sustained load on the sharded quorum cluster",
		Columns: []string{"ops", "ops/s", "p50_us", "p95_us", "p99_us"}}
	row := func(label string, s obs.HistogramSnapshot) {
		tput := 0.0
		if sum.Elapsed > 0 {
			tput = float64(s.Count) / sum.Elapsed.Seconds()
		}
		res.AddRow(label, float64(s.Count), tput,
			usOf(s.Percentile(0.50)), usOf(s.Percentile(0.95)), usOf(s.Percentile(0.99)))
	}
	row("all", sum.All)
	row("read", sum.Read)
	row("write", sum.Write)

	arrivals := "poisson"
	if !spec.Poisson {
		arrivals = "fixed-rate"
	}
	res.AddNote("%d nodes, G=%d R=%d, quorum commit; %s arrivals at %.0f ops/s, read ratio %.2f, seed %d, %d objects/app",
		loadClusterSize, loadGroups, loadRF, arrivals, spec.Rate, spec.ReadRatio, spec.Seed, spec.Objects)
	res.AddNote("issued %d, completed %d, errors %d in %s; latency measured from scheduled arrival (queueing delay included — no coordinated omission)",
		sum.Issued, sum.Completed, sum.Errors, sum.Elapsed.Round(time.Millisecond))

	allocs, err := measureHotPathAllocs(cfg)
	if err != nil {
		return nil, fmt.Errorf("hot-path allocs: %w", err)
	}
	res.AddNote("hot-path garbage: invoke %.2f allocs/op, commit %.2f allocs/op (pre-rework baselines %.2f / %.2f)",
		allocs.InvokeAllocs, allocs.CommitAllocs, baselineInvokeAllocs, baselineCommitAllocs)
	return res, nil
}
