package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"dedisys/internal/bench/loadgen"
)

// TestLoadGate is the CI gate for the load engine and the allocation-lean
// hot paths. It drives one million mixed operations (90% reads) open-loop
// against the 8-node G=4 R=3 quorum cluster and requires every one of them
// to complete without error, with monotone queue-delay-inclusive latency
// percentiles. It then re-measures the middleware's per-operation
// allocations and enforces the reduction floor against the pre-rework
// baselines (-30% on both the invoke and the commit path). Under -race the
// schedule scales down (instrumentation multiplies per-op cost) and the
// allocation assertions are skipped — the race runtime allocates on paths
// the production build does not. When BENCH_LOAD_JSON names a file, the
// measurements are written there for the CI artifact.
func TestLoadGate(t *testing.T) {
	const (
		gateOps    = 1_000_000
		gateRate   = 250000.0
		gateRatio  = 0.9
		gateSeed   = 42
		objectsPer = 512 // per application; 2048 objects across the mix
	)
	ops := gateOps
	switch {
	case raceEnabled:
		ops = 150_000
	case testing.Short():
		ops = 60_000
	}

	cfg := Config{Ops: 60, Runs: 1, Entities: 60}
	spec := loadgen.Spec{
		Ops:       ops,
		Rate:      gateRate,
		Poisson:   true,
		ReadRatio: gateRatio,
		Objects:   objectsPer,
		Seed:      gateSeed,
	}
	sum, err := measureLoad(cfg, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Issued != int64(ops) || sum.Completed != int64(ops) {
		t.Errorf("issued %d, completed %d, want %d of each", sum.Issued, sum.Completed, ops)
	}
	if sum.Errors != 0 {
		t.Errorf("errors = %d, want 0", sum.Errors)
	}
	if ops >= gateOps && sum.Completed < gateOps {
		t.Errorf("gate requires >= %d sustained mixed ops, completed %d", gateOps, sum.Completed)
	}
	if sum.Throughput <= 0 {
		t.Errorf("throughput = %.0f ops/s, want > 0", sum.Throughput)
	}
	if sum.All.Count != int64(ops) {
		t.Errorf("latency samples = %d, want %d (every op measured)", sum.All.Count, ops)
	}
	if sum.Read.Count+sum.Write.Count != sum.All.Count {
		t.Errorf("read %d + write %d != all %d", sum.Read.Count, sum.Write.Count, sum.All.Count)
	}
	p50 := sum.All.Percentile(0.50)
	p95 := sum.All.Percentile(0.95)
	p99 := sum.All.Percentile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Errorf("percentiles not monotone: p50 %v, p95 %v, p99 %v", p50, p95, p99)
	}
	t.Logf("%d ops in %s: %.0f ops/s, p50 %v, p95 %v, p99 %v",
		sum.Completed, sum.Elapsed.Round(time.Millisecond), sum.Throughput, p50, p95, p99)

	allocs, err := measureHotPathAllocs(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	invCeil, comCeil := loadAllocCeilings()
	if raceEnabled {
		t.Logf("race build: allocation gate skipped (invoke %.2f, commit %.2f allocs/op measured with instrumentation)",
			allocs.InvokeAllocs, allocs.CommitAllocs)
	} else {
		if allocs.InvokeAllocs > invCeil {
			t.Errorf("invoke path = %.2f allocs/op, gate %.2f (baseline %.2f, floor -%.0f%%)",
				allocs.InvokeAllocs, invCeil, baselineInvokeAllocs, allocReductionFloor*100)
		}
		if allocs.CommitAllocs > comCeil {
			t.Errorf("commit path = %.2f allocs/op, gate %.2f (baseline %.2f, floor -%.0f%%)",
				allocs.CommitAllocs, comCeil, baselineCommitAllocs, allocReductionFloor*100)
		}
		t.Logf("hot-path allocs: invoke %.2f/op (gate %.2f), commit %.2f/op (gate %.2f)",
			allocs.InvokeAllocs, invCeil, allocs.CommitAllocs, comCeil)
	}

	replicated, err := measureReplicatedCommitAllocs(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}

	if path := os.Getenv("BENCH_LOAD_JSON"); path != "" {
		report := map[string]any{
			"n":                      loadClusterSize,
			"groups":                 loadGroups,
			"rf":                     loadRF,
			"protocol":               "quorum (majority)",
			"ops":                    ops,
			"rate_ops_s":             gateRate,
			"read_ratio":             gateRatio,
			"poisson":                true,
			"seed":                   gateSeed,
			"objects":                objectsPer * len(loadgen.DefaultMix()),
			"completed":              sum.Completed,
			"errors":                 sum.Errors,
			"elapsed_ns":             sum.Elapsed.Nanoseconds(),
			"throughput_ops_s":       sum.Throughput,
			"p50_ns":                 p50.Nanoseconds(),
			"p95_ns":                 p95.Nanoseconds(),
			"p99_ns":                 p99.Nanoseconds(),
			"read_p50_ns":            sum.Read.Percentile(0.50).Nanoseconds(),
			"read_p99_ns":            sum.Read.Percentile(0.99).Nanoseconds(),
			"write_p50_ns":           sum.Write.Percentile(0.50).Nanoseconds(),
			"write_p99_ns":           sum.Write.Percentile(0.99).Nanoseconds(),
			"invoke_allocs_per_op":   allocs.InvokeAllocs,
			"commit_allocs_per_op":   allocs.CommitAllocs,
			"invoke_allocs_baseline": baselineInvokeAllocs,
			"commit_allocs_baseline": baselineCommitAllocs,

			"replicated_commit_allocs_per_op":   replicated,
			"replicated_commit_allocs_baseline": baselineReplicatedCommitAllocs,
			"replicated_commit_allocs_ceiling":  replicatedCommitAllocCeiling,
			"benchfmt": []string{
				fmt.Sprintf("BenchmarkLoadOpenLoop/N=%d/G=%d/R=%d/p50 1 %d ns/op", loadClusterSize, loadGroups, loadRF, p50.Nanoseconds()),
				fmt.Sprintf("BenchmarkLoadOpenLoop/N=%d/G=%d/R=%d/p99 1 %d ns/op", loadClusterSize, loadGroups, loadRF, p99.Nanoseconds()),
				fmt.Sprintf("BenchmarkLoadOpenLoop/N=%d/G=%d/R=%d/throughput 1 %.0f ops/s", loadClusterSize, loadGroups, loadRF, sum.Throughput),
				fmt.Sprintf("BenchmarkHotPathInvoke 1 %.2f allocs/op", allocs.InvokeAllocs),
				fmt.Sprintf("BenchmarkHotPathCommit 1 %.2f allocs/op", allocs.CommitAllocs),
				fmt.Sprintf("BenchmarkReplicatedCommit/N=%d/G=%d/R=%d 1 %.2f allocs/op", loadClusterSize, loadGroups, loadRF, replicated),
			},
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
	}
}

// TestReplicatedCommitAllocCeiling is the allocation gate of the replicated
// write path: one single-object quorum write on the 8-node G=4 R=3 simulator
// cluster — commit staging, threshold multicast, two remote applies, every
// store write, the straggler joined — must stay under the ceiling set when
// the state and vector copies came out of it. The count does not depend on
// the host; it moves when the replicas copy the state and the vector they are
// handed again (+8 over the two of them, 39.9), a slice is grown by append
// again, a closure is allocated per send, or a record goes back through
// reflection. Skipped under -race, whose runtime allocates on paths the
// production build does not. TestLoadGate records the same measurement in
// BENCH_load.json.
func TestReplicatedCommitAllocCeiling(t *testing.T) {
	got, err := measureReplicatedCommitAllocs(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replicated quorum commit = %.2f allocs/op (ceiling %.2f, baseline %.2f)", got, replicatedCommitAllocCeiling, baselineReplicatedCommitAllocs)
	if raceEnabled {
		t.Skip("race build: allocation gate skipped")
	}
	if got > replicatedCommitAllocCeiling {
		t.Fatalf("replicated quorum commit = %.2f allocs/op, ceiling %.2f (baseline %.2f)",
			got, replicatedCommitAllocCeiling, baselineReplicatedCommitAllocs)
	}
}

// TestRunLoadQuick smoke-tests the exp-load experiment plumbing at a small
// scale: the table has the three workload rows, every scheduled operation
// completes, and the per-class counts add up.
func TestRunLoadQuick(t *testing.T) {
	cfg := QuickConfig()
	cfg.LoadOps = 5000
	cfg.LoadRate = 100000
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (all/read/write)", len(res.Rows))
	}
	all, ok := res.Cell("all", "ops")
	if !ok || all != 5000 {
		t.Fatalf("all ops = %v (ok=%v), want 5000", all, ok)
	}
	read, _ := res.Cell("read", "ops")
	write, _ := res.Cell("write", "ops")
	if read+write != all {
		t.Errorf("read %v + write %v != all %v", read, write, all)
	}
	if read <= write {
		t.Errorf("read %v <= write %v despite 0.9 read ratio", read, write)
	}
	tput, ok := res.Cell("all", "ops/s")
	if !ok || tput <= 0 {
		t.Errorf("throughput = %v (ok=%v), want > 0", tput, ok)
	}
}
