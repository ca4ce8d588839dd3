package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dedisys/internal/transport"
)

// TestMain runs the tests from the repository root, where the driver runs:
// outDir and BENCHMARK.json are relative to it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// small shrinks a workload to test size, keeping its shape.
func small(def *workloadDef, objects, tracedOps int) *workloadDef {
	d := *def
	d.spec.objects = objects
	d.tracedOps = tracedOps
	d.shortWarmUp = 50 * time.Millisecond
	return &d
}

// skipUnderRace skips tests that read replicas while writes propagate to
// them. The middleware has a data race there at the parent commit: a
// replica-local read (object.Entity.GetInt, under the reading node's tx
// lock) runs against replication.handleBatch's deferred applyState
// (object.Entity.ApplyState), which takes no lock the reader holds — the
// apply-side audit ROADMAP item 3 asks for. This change may not touch the
// middleware, and every workload does exactly that, so the detector would
// fail these tests for a defect that is not theirs.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("replica reads race with handleBatch's unlocked applyState at the parent commit (ROADMAP item 3)")
	}
}

// quickSetUp is setUp without the two-second warm-up loop.
func quickSetUp(def *workloadDef) (*cluster, *checker, error) {
	c, err := buildCluster(def.spec, nil)
	if err != nil {
		return nil, nil, err
	}
	chk, err := c.prepare(!def.phased)
	if err != nil {
		c.close()
		return nil, nil, err
	}
	return c, chk, nil
}

func hint(n int) [numClasses]int {
	var h [numClasses]int
	for c := range h {
		h[c] = n
	}
	return h
}

func TestSameSeedSameOperations(t *testing.T) {
	stream := func(def *workloadDef, seed int64) []byte {
		ring, err := newRing(def.spec)
		if err != nil {
			t.Fatal(err)
		}
		lay := newLayout(def.spec, ring)
		var gens []generator
		for phase := phaseWarmUp; phase <= phaseLockProbe; phase++ {
			gens = append(gens, def.gens(seed, phase, lay)...)
		}
		var buf bytes.Buffer
		for i, g := range gens {
			for k := 0; k < 1000; k++ {
				fmt.Fprintln(&buf, i, g.next())
			}
		}
		return buf.Bytes()
	}
	for _, def := range workloads {
		a, b, other := stream(def, 7), stream(def, 7), stream(def, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different operation streams", def.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 generated the same operation stream", def.name)
		}
	}
}

func TestWritesNeverRevisitAnObjectEarly(t *testing.T) {
	def := workloadByName("sim-write")
	ring, err := newRing(def.spec)
	if err != nil {
		t.Fatal(err)
	}
	lay := newLayout(def.spec, ring)
	g := newSteadyGen(3, phaseMeasured, 0, lay, def.mix)
	last := map[int]int{} // object -> index of the write op that last touched it
	writes := 0
	for k := 0; k < 20000; k++ {
		o := g.next()
		if o.class == classRead {
			continue
		}
		writes++
		for i := 0; i < o.n; i++ {
			obj := o.objs[i]
			if obj%clients != 0 {
				t.Fatalf("client 0 wrote object %d, which belongs to client %d", obj, obj%clients)
			}
			if lay.home[obj] != o.node {
				t.Fatalf("write to object %d sent to node %d, its home is %d", obj, o.node, lay.home[obj])
			}
			if prev, seen := last[obj]; seen && writes-prev < 16 {
				t.Fatalf("object %d rewritten after only %d write operations", obj, writes-prev)
			}
			last[obj] = writes
		}
	}
}

// TestWorkloadsSmoke runs every workload at test size — set-up, closed loop,
// verification, and the traced pass with its probes — and expects every
// correctness check to pass and every contract metric to be produced.
func TestWorkloadsSmoke(t *testing.T) {
	skipUnderRace(t)
	// Populations stay large enough that a rewrite never meets the previous
	// write's straggler (see steadyGen); partition-heal's is small because
	// its reconciliation pays 1 ms per message.
	sizes := map[string]int{"sim-read": 256, "sim-write": 256, "wire-write": 96, "partition-heal": 32}
	for _, full := range workloads {
		def := small(full, sizes[full.name], 150)
		t.Run(def.name, func(t *testing.T) {
			res := &result{Workload: def.name, Seed: 5, Samples: map[string]int{}, Layers: map[string]float64{}}
			c, chk, err := quickSetUp(def)
			if err != nil {
				t.Fatal(err)
			}
			var m *measured
			if def.phased {
				m, err = runPhased(c, chk, def, 5, 60, c.execPlain, res)
				if err != nil {
					t.Fatal(err)
				}
				if m.phases.conflicts == 0 || m.phases.reevaluated == 0 {
					t.Errorf("reconciliation saw %d conflicts and re-evaluated %d threats; the degraded phase should cause both",
						m.phases.conflicts, m.phases.reevaluated)
				}
			} else {
				before := c.obs.Snapshot()
				st := runClosedLoop(def.gens(5, phaseMeasured, c.lay), c.execPlain, chk, stopAt{ops: 400}, hint(400))
				res.account(&st)
				c.verify(chk, res)
				m = &measured{recs: st.recs, completed: st.completed(), wall: st.elapsed, used: st.used, counts: delta{before, c.obs.Snapshot()}}
				m.opRate = float64(m.completed) / m.wall.Seconds()
			}
			c.close()
			if m.completed == 0 {
				t.Fatal("no operation completed")
			}
			// Test-size windows hold too few operations for a p99; everything
			// else fill computes must be there and non-zero.
			if err := fill(m, 0.1, res); err == nil {
				t.Error("fill reported a p99 from a test-size window")
			}
			for _, s := range endToEndSpecs {
				if res.Metrics[s.Name] <= 0 {
					t.Errorf("%s = %v, the harness wants it above 0", s.Name, res.Metrics[s.Name])
				}
			}
			if err := tracePass(def, 5, m, res, 200); err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.Failed != 0 {
				t.Fatalf("failed %d of %d, problems %v", res.Failed, res.Attempted, res.Problems)
			}
			for cl := opClass(0); cl < numClasses; cl++ {
				op := res.Layers[rowMetric(cl, "op", "mean")]
				sum := res.Layers[rowMetric(cl, unattributed, "mean")]
				for name, v := range res.Layers {
					if strings.HasPrefix(name, classNames[cl]+".") && strings.HasSuffix(name, ".self_us.mean") {
						sum += v
					}
				}
				if math.Abs(sum-op) > 0.01*op {
					t.Errorf("%s rows sum to %.3f us, the op span mean is %.3f us", classNames[cl], sum, op)
				}
			}
			if _, err := contractMetrics(res, true); err != nil {
				t.Error(err)
			}
			if res.Layers["transport.sends_per_write"] == 0 || res.Layers["wiretransport.frame_bytes"] == 0 {
				t.Errorf("sends per write %.2f, frame bytes %.0f: both should be counted",
					res.Layers["transport.sends_per_write"], res.Layers["wiretransport.frame_bytes"])
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestTracedWritesFromTwoClients drives the tracer, the decorator and the
// closed loop from two clients plus the middleware's multicast goroutines,
// with writes only so that it can run under the race detector (see
// skipUnderRace), and checks what the spans add up to.
func TestTracedWritesFromTwoClients(t *testing.T) {
	def := small(workloadByName("sim-write"), 256, 0)
	def.mix = mix{readNum: 0, readDen: 1, tx4OneIn: 4}
	tr := newTracer()
	c, err := buildCluster(def.spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.populate(); err != nil {
		t.Fatal(err)
	}
	chk := newChecker(c.lay, clients, true)
	tr.on.Store(true)
	st := runClosedLoop(def.gens(3, phaseMeasured, c.lay), c.execTraced(tr, false), chk, stopAt{after: 300 * time.Millisecond}, hint(1000))
	c.quiesce()
	tr.on.Store(false)
	res := &result{}
	res.account(&st)
	c.verify(chk, res)
	if !res.correct() || st.completed() == 0 || tr.inflight.Load() != 0 {
		t.Fatalf("completed %d, in flight %d, problems %v", st.completed(), tr.inflight.Load(), res.Problems)
	}
	if len(st.ticks) == 0 {
		t.Error("a timed window recorded no CPU tick")
	}
	lt := tr.reduce(tr.all())
	if int64(lt.ops[classWrite]+lt.ops[classTx4]) != st.completed() {
		t.Errorf("reduced %d + %d traced operations, %d completed", lt.ops[classWrite], lt.ops[classTx4], st.completed())
	}
	for _, cl := range []opClass{classWrite, classTx4} {
		sum := 0.0
		for name, v := range lt.mean[cl] {
			if name != "op" {
				sum += v
			}
		}
		if op := lt.mean[cl]["op"]; math.Abs(sum-op) > 0.01*op {
			t.Errorf("%s rows sum to %.3f us, the op span mean is %.3f us", classNames[cl], sum, op)
		}
		if lt.mean[cl]["transport.send"] == 0 || lt.mean[cl]["transport.handle.repl_batch"] == 0 {
			t.Errorf("%s: send %.3f us, remote apply %.3f us: both should have been recorded",
				classNames[cl], lt.mean[cl]["transport.send"], lt.mean[cl]["transport.handle.repl_batch"])
		}
	}
	if tr.batch == nil || tr.bytesPerSend() == 0 {
		t.Error("no repl.batch payload was sampled")
	}
}

// TestFailuresAreDetectedAndCounted corrupts one read and fails one write
// on their way back to the driver: both must be counted as failed, leave the
// latency samples, and fail the run.
func TestFailuresAreDetectedAndCounted(t *testing.T) {
	skipUnderRace(t)
	def := small(workloadByName("sim-read"), 32, 0)
	c, chk, err := quickSetUp(def)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	reads, writes := 0, 0
	sabotage := func(ctx context.Context, client int, o *op) (int64, error) {
		v, err := c.execPlain(ctx, client, o)
		if client != 0 || err != nil {
			return v, err
		}
		if o.class == classRead {
			if reads++; reads == 10 {
				return v + 1, nil // a value of the neighbouring object
			}
		} else if writes++; writes == 3 {
			return 0, errors.New("forced failure")
		}
		return v, nil
	}
	st := runClosedLoop(def.gens(9, phaseMeasured, c.lay), sabotage, chk, stopAt{ops: 300}, hint(300))
	if st.attempted != 2*300 || st.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 600 and 2", st.attempted, st.failed)
	}
	samples := 0
	for _, r := range st.recs {
		samples += len(r)
	}
	if samples != 598 {
		t.Errorf("%d latency samples, want 598: failed operations must not be sampled", samples)
	}
	res := &result{Samples: map[string]int{}}
	res.account(&st)
	if res.correct() || float64(res.Failed)/float64(res.Attempted) == 0 {
		t.Errorf("run with failures reported correct (failed ratio %d/%d)", res.Failed, res.Attempted)
	}
}

func TestCheckerRejectsStaleAndForeignValues(t *testing.T) {
	lay := newLayout(clusterSpec{nodes: 2, objects: 4, homeOf: func(i, n int) int { return i % n }}, nil)
	chk := newChecker(lay, clients, true)
	w := op{class: classWrite, n: 1, objs: [4]int{2}, vals: [4]int64{encodeValue(5, 0, 2)}}
	chk.issue(&w)
	if err := chk.read(0, 2, chk.floor(0, 2), encodeValue(5, 0, 2)); err != nil {
		t.Fatalf("issued value rejected: %v", err)
	}
	for name, v := range map[string]int64{
		"never written":  encodeValue(6, 0, 2),
		"another object": encodeValue(5, 0, 3),
		"older value":    encodeValue(4, 0, 2),
	} {
		if err := chk.read(0, 2, chk.floor(0, 2), v); err == nil {
			t.Errorf("%s: read of %#x accepted", name, v)
		}
	}
	// Another replica has not been read yet, so the older value is fine there.
	if err := chk.read(1, 2, chk.floor(1, 2), encodeValue(4, 0, 2)); err != nil {
		t.Errorf("older value on an unread replica rejected: %v", err)
	}
}

func TestAttributeSharesParallelChildren(t *testing.T) {
	spans := []span{
		{op: 1, id: 1, name: spanOp, start: 0, end: 100},
		{op: 1, id: 2, parent: 1, name: spanCommit, start: 20, end: 90},
		{op: 1, id: 3, parent: 2, name: spanSend, start: 30, end: 70},
		{op: 1, id: 4, parent: 2, name: spanSend, start: 40, end: 150}, // straggler: outlives the op
		{op: 1, id: 5, parent: 3, name: spanFixed, start: 35, end: 60}, // handler under the first send
	}
	got := attribute(spans)
	// [0,20) op; [20,30) commit; [30,35) first send; [35,40) its handler;
	// [40,60) handler and second send share; [60,70) the two sends share;
	// [70,90) second send; [90,100) op again — the straggler is clipped to
	// the commit that issued it. The sends cover [30,90) of the commit and
	// their overlap is subtracted once: commit keeps 10, not 70-40-50.
	want := []float64{30, 10, 5 + 5, 10 + 5 + 20, 5 + 10}
	total := 0.0
	for i, v := range got {
		total += v
		if math.Abs(v-want[i]) > 1e-9 {
			t.Errorf("span %d gets %v, want %v (all shares %v)", spans[i].id, v, want[i], got)
		}
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %v, the op lasted 100", total)
	}
}

func TestDecoratorKeepsTheOracle(t *testing.T) {
	var sim transport.Transport = &simTraced{}
	if _, ok := sim.(transport.Oracle); !ok {
		t.Fatal("the simulator's decorator lost the Oracle")
	}
	var wire transport.Transport = &wireTraced{}
	if _, ok := wire.(transport.Oracle); ok {
		t.Fatal("the wire decorator claims an Oracle the wire does not have")
	}
	spec := workloadByName("partition-heal").spec
	spec.netCost, spec.objects = 0, 4
	c, err := buildCluster(spec, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	gms := c.nodes[0].GMS()
	if gms.DetectorDriven() {
		t.Fatal("membership under the decorator is not oracle-driven")
	}
	ids := nodeIDs(4)
	c.net.Partition(ids[:2], ids[2:])
	if v := gms.ViewOf(ids[0]); v.Size() != 2 || !v.Contains(ids[1]) {
		t.Errorf("n1's view after the split is %v, want {n1 n2}", v)
	}
	c.net.Heal()
	if v := gms.ViewOf(ids[0]); v.Size() != 4 {
		t.Errorf("n1's view after healing is %v, want all four", v)
	}
}

func TestPercentilesAreExact(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if p := nearestRank(vals, 0.50); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
	if p := nearestRank(vals, 0.99); p != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", p)
	}
	// Five one-second slices of 1 µs operations; one slice has a stall.
	var recs []rec
	for s := 0; s < 5; s++ {
		for i := 0; i < 1000; i++ {
			lat := uint32(1000)
			if s == 2 && i%20 == 0 {
				lat = 5000000
			}
			recs = append(recs, rec{endUs: uint32(s*1000000 + i*1000), latNs: lat})
		}
	}
	sum := summarize(recs)
	if sum.slices != 5 || sum.p50us != 1 || sum.p99us != 1 {
		t.Errorf("slices %d p50 %v p99 %v, want 5, 1 and 1: one stalled slice must not move the p99", sum.slices, sum.p50us, sum.p99us)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(vals[:10])
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestBenchmarkJSONMatchesTheDriver(t *testing.T) {
	want, err := benchmarkJSON(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark --print-spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	layers := perLayerSpecs()
	if len(endToEndSpecs) > 16 || len(layers) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, the contract allows 16 and 128", len(endToEndSpecs), len(layers))
	}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), layers...) {
		if !name.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q is malformed or used twice", s.Name)
		}
		seen[s.Name] = true
		if s.Bound > 0.25 {
			t.Errorf("%s: bound %v above the contract's 0.25", s.Name, s.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: rationale is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
}

func TestGuardRailRefusesThinWindows(t *testing.T) {
	m := &measured{completed: 10, wall: time.Second, used: usage{cpu: time.Millisecond, mallocs: 10, bytes: 10}}
	m.recs[classRead] = make([]rec, 2000)
	m.recs[classWrite] = make([]rec, minP99Samples-1)
	res := &result{Samples: map[string]int{}}
	if err := fill(m, 0.1, res); err == nil {
		t.Error("a window with too few writes for a p99 was reported")
	}
}
