package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestWireExperiment runs the wire-vs-simulation commit latency comparison
// at quick scale: three unix-socket endpoints and three simulated nodes, the
// same single-object commit on each. It asserts shape, not numbers — real
// sockets on a shared CI host give no stable ratio — and when
// BENCH_WIRE_JSON names a file it writes the measurements there for the CI
// artifact (the BENCH_QUORUM_JSON pattern).
func TestWireExperiment(t *testing.T) {
	cfg := QuickConfig()
	cfg.Ops = 40
	res, err := runWire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	wireP50, ok := res.Cell("wire (unix sockets)", "p50_us")
	if !ok || wireP50 <= 0 {
		t.Fatalf("wire p50 = %v (ok=%v), want > 0: a zero sample means the commit never crossed the kernel", wireP50, ok)
	}
	simP50, ok := res.Cell("simulated hop", "p50_us")
	if !ok || simP50 < 0 {
		t.Fatalf("sim p50 = %v (ok=%v)", simP50, ok)
	}
	wireP95, _ := res.Cell("wire (unix sockets)", "p95_us")
	if wireP95 < wireP50 {
		t.Fatalf("wire p95 %v < p50 %v", wireP95, wireP50)
	}

	if path := os.Getenv("BENCH_WIRE_JSON"); path != "" {
		wireMean, _ := res.Cell("wire (unix sockets)", "mean_us")
		simP95, _ := res.Cell("simulated hop", "p95_us")
		simMean, _ := res.Cell("simulated hop", "mean_us")
		report := map[string]any{
			"go":           runtime.Version(),
			"num_cpu":      runtime.NumCPU(),
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"n":            wireBenchSize,
			"iters":        wireBenchIters(cfg),
			"transport":    "unix sockets, length-prefixed frames: repl.batch and its ack self-encoded, every other kind on one gob stream per link",
			"wire_p50_us":  wireP50,
			"wire_p95_us":  wireP95,
			"wire_mean_us": wireMean,
			"sim_p50_us":   simP50,
			"sim_p95_us":   simP95,
			"sim_mean_us":  simMean,
			"notes":        res.Notes,
			"benchfmt": []string{
				fmt.Sprintf("BenchmarkCommitWire/backend=wire/N=%d/p50 1 %d ns/op", wireBenchSize, int64(wireP50*1e3)),
				fmt.Sprintf("BenchmarkCommitWire/backend=sim/N=%d/p50 1 %d ns/op", wireBenchSize, int64(simP50*1e3)),
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
