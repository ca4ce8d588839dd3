package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
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
			"go":                  runtime.Version(),
			"num_cpu":             runtime.NumCPU(),
			"gomaxprocs":          runtime.GOMAXPROCS(0),
			"n":                   wireBenchSize,
			"iters":               wireBenchIters(cfg),
			"transport":           "unix sockets, length-prefixed frames: repl.batch and its ack self-encoded, every other kind on one gob stream per link",
			"wire_p50_us":         wireP50,
			"wire_p95_us":         wireP95,
			"wire_mean_us":        wireMean,
			"sim_p50_us":          simP50,
			"sim_p95_us":          simP95,
			"sim_mean_us":         simMean,
			"notes":               res.Notes,
			"send_allocs":         wireSendAllocs(t),
			"send_allocs_ceiling": wireSendAllocCeiling,
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

// wireSendAllocCeiling bounds the allocations of one request/response round
// trip of a replica write over an idle link, both endpoints counted. Request
// and ack encode themselves (transport.WirePayload) and measure 5, all of
// them the batch decoded into fresh memory: the batch's box with its one op
// inline 1, object ID 1, state map 2, the vector's one slice 1 (the recorded
// value is a small integer, which boxes for free — a larger one is +1). The
// all-landed ack decodes to the shared ackAll (a boxed ack was +1), the reply
// channel is one the link has used before (a new one per send was +2), and a
// server parked on the link serves the request (a goroutine per request was
// +1). The headroom of 3 is for the map under CI's Go 1.22. What it catches:
// either direction back on gob is +6 or more (a string ack over gob measured
// 17, both directions on gob 42, a codec rebuilt per frame 683), a reader that
// stops interning names is +6, and the vector back in a map +1.
const wireSendAllocCeiling = 8

// recordedBatch returns a repl.batch request as the replication layer ships
// it for a single-object commit, captured on its way to one replica of a
// simulated three-node cluster, and the ack the other replica's own handler
// gives to the same batch.
func recordedBatch(t *testing.T) (batch, ack any) {
	t.Helper()
	c, err := newBenchCluster(QuickConfig(), clusterOpts{size: 3, disableCCM: true}, constraint.HardInvariant)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ids := c.IDs()
	var mu sync.Mutex
	err = c.Net.Handle(ids[2], "repl.batch", func(_ transport.NodeID, p any) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		batch = p
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := commitSamples(c.Node(0), ids, 1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if batch == nil {
		t.Fatal("the commit shipped no repl.batch")
	}
	if ack, err = c.Net.Send(context.Background(), ids[0], ids[1], "repl.batch", batch); err != nil {
		t.Fatal(err)
	}
	return batch, ack
}

// wireSendAllocs measures the allocations of one acknowledged Wire.Send of
// a recorded repl.batch payload over a warmed unix-socket pair.
func wireSendAllocs(t *testing.T) float64 {
	t.Helper()
	batch, ack := recordedBatch(t)
	dir := t.TempDir()
	peers := map[transport.NodeID]string{
		"a": "unix:" + filepath.Join(dir, "a.sock"),
		"b": "unix:" + filepath.Join(dir, "b.sock"),
	}
	var wires []*wiretransport.Wire
	for _, id := range []transport.NodeID{"a", "b"} {
		w, err := wiretransport.New(id, peers)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		wires = append(wires, w)
	}
	// The peer answers as handleBatch does: with the recorded ack.
	if err := wires[1].Handle("b", "echo", func(transport.NodeID, any) (any, error) { return ack, nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	send := func() {
		if _, err := wires[0].Send(ctx, "a", "b", "echo", batch); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun's own warm-up call dials the link and fills the name table
	// of both directions; the measured runs are steady state.
	return testing.AllocsPerRun(200, send)
}

// TestWireSendAllocCeiling is the deterministic half of the wire gate: no
// timing ratio is asserted (see TestWireExperiment), but the allocation count
// of a round trip does not depend on the host, and it is what a per-frame
// codec inflates by an order of magnitude.
func TestWireSendAllocCeiling(t *testing.T) {
	got := wireSendAllocs(t)
	t.Logf("one acknowledged Wire.Send of a repl.batch = %.0f allocs (ceiling %d)", got, wireSendAllocCeiling)
	if got > wireSendAllocCeiling {
		t.Fatalf("%.0f allocs exceed the ceiling of %d", got, wireSendAllocCeiling)
	}
}
