package bench

import (
	"fmt"
	"runtime"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/replication"
)

// Hot-path allocation measurement: allocs/op of one read invocation and one
// single-object write commit through the full middleware stack (transaction,
// interceptor chain, CCM lookup, replication staging, CMP persistence). The
// cluster is a single node so the numbers are deterministic — no concurrent
// multicast goroutines allocate into the measurement window — and what is
// measured is exactly the per-operation garbage the middleware itself
// produces, which is what the load engine's throughput ceiling is made of.

// hotPathOps is the iteration count per measurement; large enough that
// one-time warmup noise (map growth, persistence table creation) amortises
// to below a hundredth of an alloc.
const hotPathOps = 2000

// HotPathAllocs reports the middleware's per-operation allocation counts.
type HotPathAllocs struct {
	InvokeAllocs float64 // one read invocation (Value) through the full chain
	CommitAllocs float64 // one write invocation (SetValue) incl. commit staging
}

// measureHotPathAllocs builds a single-node cluster with the CCM and
// replication enabled (the full interceptor chain of Figure 4.5) and counts
// mallocs across read and write invocations.
func measureHotPathAllocs(cfg Config) (HotPathAllocs, error) {
	var out HotPathAllocs
	cfg.NetCost = 0
	cfg.StoreCost = 0
	c, err := newBenchCluster(cfg, clusterOpts{size: 1}, constraint.AsyncInvariant)
	if err != nil {
		return out, err
	}
	defer c.Stop()
	n := c.Node(0)
	const oid = object.ID("hot000")
	if err := n.Create(beanClass, oid, object.State{"value": int64(0)}, c.AllReplicas(n.ID)); err != nil {
		return out, fmt.Errorf("create %s: %w", oid, err)
	}

	read := func(i int) error {
		_, err := n.Invoke(oid, "Value")
		return err
	}
	write := func(i int) error {
		_, err := n.Invoke(oid, "SetValue", int64(i))
		return err
	}
	if out.InvokeAllocs, err = allocsPerOp(hotPathOps, read); err != nil {
		return out, fmt.Errorf("invoke path: %w", err)
	}
	if out.CommitAllocs, err = allocsPerOp(hotPathOps, write); err != nil {
		return out, fmt.Errorf("commit path: %w", err)
	}
	return out, nil
}

// measureReplicatedCommitAllocs counts the mallocs of one single-object
// quorum write on the gate cluster (8 nodes, G=4, R=3): commit staging, the
// threshold multicast, both remote applies and every store write. The
// background straggler send is joined inside the operation, so all of one
// write's garbage — and nothing of the next — lands in the window.
func measureReplicatedCommitAllocs(cfg Config) (float64, error) {
	cfg.NetCost = 0
	cfg.StoreCost = 0
	c, err := newBenchCluster(cfg, clusterOpts{
		size:     loadClusterSize,
		groups:   loadGroups,
		rf:       loadRF,
		protocol: replication.Quorum{},
	}, constraint.AsyncInvariant)
	if err != nil {
		return 0, err
	}
	defer c.Stop()
	const oid = object.ID("hot000")
	home := shardHome(c, oid)
	if err := home.Create(beanClass, oid, object.State{"value": int64(0)}, c.AllReplicas(home.ID)); err != nil {
		return 0, fmt.Errorf("create %s: %w", oid, err)
	}
	return allocsPerOp(hotPathOps, func(i int) error {
		_, err := home.Invoke(oid, "SetValue", int64(i))
		home.Repl.WaitPropagation()
		return err
	})
}

// allocsPerOp measures the mean number of heap allocations per call of op.
// It warms the path first (lookup caches, map growth, table creation), then
// counts mallocs over n calls on a quiesced heap. The caller must ensure no
// background goroutines allocate during the window — the single-node cluster
// above has none.
func allocsPerOp(n int, op func(i int) error) (float64, error) {
	for i := 0; i < 64; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
