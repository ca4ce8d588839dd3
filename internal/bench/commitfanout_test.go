package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// BenchmarkCommitFanOut measures one write of K=8 objects on a 4-node cluster
// as one transaction and as K one-object transactions. The simulated
// per-message cost makes the round count visible in ns/op: K commits pay K
// rounds, one commit pays one.
func BenchmarkCommitFanOut(b *testing.B) {
	for _, mode := range []struct {
		name   string
		txSize int
	}{
		{"mode=batched", 8},
		{"mode=per-object", 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := QuickConfig()
			cfg.NetCost = 200 * time.Microsecond
			c, n, ids, err := newFanOutCluster(cfg, 4, 8)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fanOutWrite(n, ids, i, mode.txSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCommitFanOutSpeedup is the CI gate for the batching optimisation at
// K=8 dirty objects on a 4-node cluster: one 8-object transaction against 8
// one-object transactions, both through the one commit path. The primary
// assertions are on the deterministic cost model — commit-time multicast
// rounds and store writes — so they cannot flake; the wall-clock assertion uses a network cost large
// enough that sleep-based simulated time dominates host jitter. When
// BENCH_COMMIT_JSON names a file, the measurements are written there for the
// CI artifact.
func TestCommitFanOutSpeedup(t *testing.T) {
	const (
		size  = 4
		k     = 8
		iters = 3
	)
	cfg := QuickConfig()
	cfg.NetCost = 5 * time.Millisecond

	batched, err := measureCommitFanOut(cfg, size, k, iters, k)
	if err != nil {
		t.Fatalf("batched: %v", err)
	}
	perObject, err := measureCommitFanOut(cfg, size, k, iters, 1)
	if err != nil {
		t.Fatalf("per-object: %v", err)
	}

	// Deterministic gate: batched must pay strictly fewer simulated rounds.
	if batched.Rounds >= perObject.Rounds {
		t.Fatalf("batched rounds %d >= per-object rounds %d", batched.Rounds, perObject.Rounds)
	}
	if batched.Rounds != iters {
		t.Errorf("batched rounds = %d, want %d (one per commit)", batched.Rounds, iters)
	}
	if perObject.Rounds != k*iters {
		t.Errorf("per-object rounds = %d, want %d (one per dirty object)", perObject.Rounds, k*iters)
	}
	if batched.BatchSize != k*iters {
		t.Errorf("batched ops shipped = %d, want %d", batched.BatchSize, k*iters)
	}
	// Every replica stores a commit in one write, however many objects it
	// wrote.
	if batched.Writes != iters*size {
		t.Errorf("batched store writes = %d, want %d (one per replica and commit)", batched.Writes, iters*size)
	}
	if perObject.Writes != k*iters*size {
		t.Errorf("per-object store writes = %d, want %d (one per replica and commit)", perObject.Writes, k*iters*size)
	}

	speedup := float64(perObject.PerCommit) / float64(batched.PerCommit)
	if speedup < 4 {
		t.Errorf("commit speedup = %.2fx, want >= 4x (batched %v, per-object %v)",
			speedup, batched.PerCommit, perObject.PerCommit)
	}

	if path := os.Getenv("BENCH_COMMIT_JSON"); path != "" {
		report := map[string]any{
			"k":                 k,
			"n":                 size,
			"iters":             iters,
			"batched_ns":        batched.PerCommit.Nanoseconds(),
			"sequential_ns":     perObject.PerCommit.Nanoseconds(),
			"speedup":           speedup,
			"rounds_batched":    batched.Rounds,
			"rounds_sequential": perObject.Rounds,
			"note":              "since issue 15 the sequential_* arm is K one-object transactions through the one commit path; before, it was the seed's per-object propagation mode inside one commit (same K rounds)",
			"benchfmt": []string{
				fmt.Sprintf("BenchmarkCommitFanOut/mode=batched/K=%d 1 %d ns/op", k, batched.PerCommit.Nanoseconds()),
				fmt.Sprintf("BenchmarkCommitFanOut/mode=per-object/K=%d 1 %d ns/op", k, perObject.PerCommit.Nanoseconds()),
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
