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
// interceptor chain, CCM lookup, replication staging, CMP persistence), and
// of one replicated quorum write. The first two run on a single node so the
// numbers are deterministic — no concurrent multicast goroutines allocate
// into the measurement window — and what is measured is exactly the
// per-operation garbage the middleware itself produces. The counts do not
// depend on the host, which is why they are gated; load and latency are
// measured by the repo benchmark (benchmark/README.md).
//
// No gate here validates a constraint: benchConstraints binds nothing to
// SetValue, the method every measured operation calls. A validation's own
// allocations are gated in internal/core (TestValidationAllocs: one with a
// called-object context, three before the context kept its first access
// inline and the preparer stopped taking a lookup closure), and cutting them
// moved none of the counts here — 2.00 and 8.87 single-node, 14.88 and 15.88
// replicated, then — nor may it.

// The gate cluster shape: 8 nodes, 4 groups, replication factor 3, quorum
// commit — the replicated allocation count and the sharded stress test.
const (
	gateClusterSize = 8
	gateGroups      = 4
	gateRF          = 3
)

// The single-node counts. The baselines are what measureHotPathAllocs read on
// the revision before the allocation-lean rework (see EXPERIMENTS.md,
// "Hot-path allocations"). TestHotPathAllocGate holds the current counts —
// 1.00 and 6.9 on Go 1.24 — under the ceilings: the measured count plus
// headroom for CI's Go 1.22, whose maps allocate differently — one
// allocation on a read, three on a commit — so that the gate fails long
// before either count has doubled. A read's one allocation is its
// transaction with its invocation beside it (tx.BeginWith); the invocation
// allocated on its own again is +1 on both counts. The CMP put back on the
// reflective encoder alone is +4, together with the vector put allocating its
// record again (a vector handed to the store by value) +5.
const (
	baselineInvokeAllocs = 8.00
	baselineCommitAllocs = 44.88
	invokeAllocCeiling   = 2.0
	commitAllocCeiling   = 10.0
)

// The replicated writes — measureReplicatedCommitAllocs on the two gate
// clusters. The quorum write's baseline is the commit before entity state and
// version vectors became copy-on-write (Go 1.24; EXPERIMENTS.md, "Hot-path
// allocations"; 80.9 before the rework before that).
// TestReplicatedCommitAllocCeiling holds the current counts under the
// ceilings: what is measured plus six for CI's Go 1.22, whose maps allocate
// differently.
//
// The quorum write's 8.9, by site: the multicast round 2 (the oneOpRound that
// is round, destinations, message and the one op in one; the senders' one
// function value — the engine's wake-up channel comes from the Comm's idle
// list), the coordinator's copy-on-write of the state map 2 and of the bumped
// vector 1, the transaction with its invocation beside it 1, its undo record
// 1, the caller's boxed argument 1.4, map growth the rest. A replica whose ops
// all landed answers with the shared ackAll, so the wait-all write, a third
// replica on top, reads the same 8.9; a boxed ack is +1 a replica. The op run
// or the invocation allocated on its own again, or a wake-up channel made per
// round, is +1 each; a closure, a boxed message or a copy of the ops per
// destination is +2 or more on either; of the write's store writes, one
// allocating its record again (a vector handed over by value, not by pointer)
// is +1 and the CMP put back on the reflective encoder +4; the state and the
// vector copied again on each replica +2 a replica. More than six of those
// together — the reflective CMP put with the copies again on one replica, say
// — fail the gate on any toolchain, fewer only where the maps have used the
// headroom up.
const (
	baselineReplicatedCommitAllocs = 41.88
	replicatedCommitAllocCeiling   = 15.0
	baselineWaitAllCommitAllocs    = 24.88 // at the commit before the fan-out engine; first counted then
	waitAllCommitAllocCeiling      = 15.0
)

// The clusters a replicated write's allocations are counted on: the quorum
// write of the sharded benchmark workloads, and the P4 write that waits for
// every replica on partition-heal's 4-node full-replication shape.
var (
	quorumGateCluster  = clusterOpts{size: gateClusterSize, groups: gateGroups, rf: gateRF, protocol: replication.Quorum{}}
	waitAllGateCluster = clusterOpts{size: 4, protocol: replication.PrimaryPerPartition{}}
)

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

// measureReplicatedCommitAllocs counts the mallocs of one single-object write
// on a gate cluster: commit staging, the multicast round, every remote apply
// and every store write. A quorum write's background straggler send is joined
// inside the operation, so all of one write's garbage — and nothing of the
// next — lands in the window.
func measureReplicatedCommitAllocs(cfg Config, shape clusterOpts) (float64, error) {
	cfg.NetCost = 0
	cfg.StoreCost = 0
	c, err := newBenchCluster(cfg, shape, constraint.AsyncInvariant)
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

// The exp-allocs row labels, shared with TestHotPathAllocGate.
const (
	allocRowInvoke     = "invoke (read, 1 node)"
	allocRowCommit     = "commit (write, 1 node)"
	allocRowReplicated = "replicated commit (8 nodes, G=4 R=3, quorum)"
	allocRowWaitAll    = "replicated commit (4 nodes, full replication, P4)"
)

// runAllocs regenerates the hot-path allocation table: the gated counts
// beside the baseline each was cut from and the ceiling CI holds it under.
func runAllocs(cfg Config) (*Result, error) {
	allocs, err := measureHotPathAllocs(cfg)
	if err != nil {
		return nil, err
	}
	replicated, err := measureReplicatedCommitAllocs(cfg, quorumGateCluster)
	if err != nil {
		return nil, err
	}
	waitAll, err := measureReplicatedCommitAllocs(cfg, waitAllGateCluster)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "exp-allocs", Title: "hot-path allocations per operation against their baselines and CI ceilings",
		Columns: []string{"allocs/op", "baseline", "ceiling"}}
	res.AddRow(allocRowInvoke, allocs.InvokeAllocs, baselineInvokeAllocs, invokeAllocCeiling)
	res.AddRow(allocRowCommit, allocs.CommitAllocs, baselineCommitAllocs, commitAllocCeiling)
	res.AddRow(allocRowReplicated, replicated, baselineReplicatedCommitAllocs, replicatedCommitAllocCeiling)
	res.AddRow(allocRowWaitAll, waitAll, baselineWaitAllCommitAllocs, waitAllCommitAllocCeiling)
	res.AddNote("mallocs over %d operations each at GOMAXPROCS=1, simulated hardware costs zeroed; the replicated write joins its straggler send inside the operation", hotPathOps)
	return res, nil
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
