package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/persistence"
	"dedisys/internal/replication"
)

// TestHotPathAllocGate is the CI gate of the allocation-lean hot paths. It
// runs exp-allocs and holds the two single-node counts under ceilings set
// just above what is measured: one read invocation (2.00, ceiling 3) and one
// single-object write commit (7.9, ceiling 11). The replicated writes'
// ceilings are TestReplicatedCommitAllocCeiling's; their counts are measured
// and recorded here. Under -race the assertions are skipped — the race runtime
// allocates on paths the production build does not. When BENCH_ALLOCS_JSON
// names a file, the four rows are written there with the machine shape for
// the CI artifact.
func TestHotPathAllocGate(t *testing.T) {
	res, err := runAllocs(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		label, key, bench string
		enforced          bool
	}{
		{allocRowInvoke, "invoke", "BenchmarkHotPathInvoke", true},
		{allocRowCommit, "commit", "BenchmarkHotPathCommit", true},
		{allocRowReplicated, "replicated_commit",
			fmt.Sprintf("BenchmarkReplicatedCommit/N=%d/G=%d/R=%d", gateClusterSize, gateGroups, gateRF), false},
		{allocRowWaitAll, "wait_all_commit",
			fmt.Sprintf("BenchmarkReplicatedCommit/N=%d/full/P4", waitAllGateCluster.size), false},
	}
	report := map[string]any{
		"go":         runtime.Version(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
	var benchfmt []string
	for _, r := range rows {
		got, ok := res.Cell(r.label, "allocs/op")
		if !ok {
			t.Fatalf("exp-allocs has no row %q", r.label)
		}
		baseline, _ := res.Cell(r.label, "baseline")
		ceiling, _ := res.Cell(r.label, "ceiling")
		t.Logf("%s = %.2f allocs/op (ceiling %.2f, baseline %.2f)", r.label, got, ceiling, baseline)
		if r.enforced && !raceEnabled && got > ceiling {
			t.Errorf("%s = %.2f allocs/op, ceiling %.2f (baseline %.2f)", r.label, got, ceiling, baseline)
		}
		report[r.key+"_allocs_per_op"] = got
		report[r.key+"_allocs_baseline"] = baseline
		report[r.key+"_allocs_ceiling"] = ceiling
		benchfmt = append(benchfmt, fmt.Sprintf("%s 1 %.2f allocs/op", r.bench, got))
	}
	report["benchfmt"] = benchfmt

	if path := os.Getenv("BENCH_ALLOCS_JSON"); path != "" {
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
// write path: one single-object write — commit staging, the multicast round,
// every remote apply, every store write, the straggler joined — on the 8-node
// G=4 R=3 quorum cluster and, waiting for every replica, on the 4-node
// full-replication P4 cluster must stay under the ceilings set when the round
// became one object (hotpath.go lists the count by site). The counts do not
// depend on the host; they move when a closure, a boxed message or a copy of
// the ops is made per destination again, a store write allocates its record
// again (+1 each, four a quorum write), the entity record goes back through
// reflection (+4), the replicas copy the state and the vector they are handed
// again (+2 a replica), or a slice is grown by append again. Skipped under
// -race, whose runtime allocates on paths the production build does not.
// TestHotPathAllocGate records the same measurements in BENCH_allocs.json.
func TestReplicatedCommitAllocCeiling(t *testing.T) {
	for _, row := range []struct {
		label             string
		shape             clusterOpts
		baseline, ceiling float64
	}{
		{allocRowReplicated, quorumGateCluster, baselineReplicatedCommitAllocs, replicatedCommitAllocCeiling},
		{allocRowWaitAll, waitAllGateCluster, baselineWaitAllCommitAllocs, waitAllCommitAllocCeiling},
	} {
		got, err := measureReplicatedCommitAllocs(QuickConfig(), row.shape)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s = %.2f allocs/op (ceiling %.2f, baseline %.2f)", row.label, got, row.ceiling, row.baseline)
		if !raceEnabled && got > row.ceiling {
			t.Errorf("%s = %.2f allocs/op, ceiling %.2f (baseline %.2f)", row.label, got, row.ceiling, row.baseline)
		}
	}
}

// TestStorePutAllocatesNothing: rewriting a live key with a record that
// encodes itself — the version vector of three of a quorum write's four store
// writes, the entity of the fourth, a bare state as the benchmark's probe puts
// it — allocates nothing: the record is appended into a recycled buffer and
// copied over the bytes the key already holds. One allocation here is one per
// store write on every write path. Skipped under -race, where sync.Pool drops
// a share of what it is handed.
func TestStorePutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race build: allocation count skipped")
	}
	store := persistence.NewStore()
	e := object.New(beanClass, "hot000", object.State{"value": int64(42), "owner": object.ID("acct-1"), "tag": "plain"})
	for name, rec := range map[string]any{
		"VersionVector": replication.VersionVector{{Node: "n1", Count: 1 << 40}, {Node: "n2", Count: 1}, {Node: "n3", Count: 12}},
		"*Entity":       e,
		"State":         e.Snapshot(),
	} {
		got := testing.AllocsPerRun(1000, func() {
			if err := store.Put("t", name, rec); err != nil {
				t.Error(err)
			}
		})
		if got != 0 {
			t.Errorf("steady-state Put of a %s = %v allocs, want 0", name, got)
		}
	}
}

// BenchmarkInvokeRead measures one read invocation (Value) through the full
// single-node middleware stack.
func BenchmarkInvokeRead(b *testing.B) {
	benchHotPath(b, "Value", func(i int) []any { return nil })
}

// BenchmarkInvokeWrite measures one write invocation (SetValue) including
// commit staging and CMP persistence on a single node.
func BenchmarkInvokeWrite(b *testing.B) {
	benchHotPath(b, "SetValue", func(i int) []any { return []any{int64(i)} })
}

func benchHotPath(b *testing.B, method string, args func(i int) []any) {
	b.ReportAllocs()
	cfg := QuickConfig()
	c, err := newBenchCluster(cfg, clusterOpts{size: 1}, constraint.AsyncInvariant)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	n := c.Node(0)
	if err := n.Create(beanClass, "hot000", object.State{"value": int64(0)}, c.AllReplicas(n.ID)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Invoke("hot000", method, args(i)...); err != nil {
			b.Fatal(err)
		}
	}
}
