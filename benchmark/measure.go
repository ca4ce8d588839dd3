package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"dedisys/internal/chaos"
	"dedisys/internal/obs"
	"dedisys/internal/reconcile"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
)

// workloadDef is one workload: its cluster, its operation mix and how much
// work its traced pass does.
type workloadDef struct {
	name string
	why  string
	spec clusterSpec
	mix  mix
	// phased marks partition-heal: fixed operation counts through healthy,
	// degraded and reconciliation phases instead of one timed window.
	phased bool
	// ratePerClient sizes the sample buffers: a generous guess at completed
	// operations per second per client per class.
	ratePerClient [numClasses]int
	// tracedOps is the traced pass's fixed operation count per client.
	tracedOps int
	// shortWarmUp replaces warmUp; only the tests set it.
	shortWarmUp time.Duration
}

var workloads = []*workloadDef{
	{
		name: "sim-read",
		why:  "95% replica-local reads: invocation chain, repository lookup, core validation, tx lock; replication/group/transport/persistence idle, so a gain there must not move it",
		spec: clusterSpec{nodes: 8, groups: 4, rf: 3, protocol: replication.Quorum{}, objects: 2048},
		mix:  mix{readNum: 19, readDen: 20},
		ratePerClient: [numClasses]int{
			classRead: 400000, classWrite: 40000,
		},
		tracedOps: 20000,
	},
	{
		name: "sim-write",
		why:  "writes on the simulator, 1 in 4 a 4-object transaction: CPU-bound on tx 2PC, replication batch, threshold multicast, remote apply, persistence; 1-in-16 read probe only",
		spec: clusterSpec{nodes: 8, groups: 4, rf: 3, protocol: replication.Quorum{}, objects: 2048},
		mix:  mix{readNum: 1, readDen: 16, tx4OneIn: 4},
		ratePerClient: [numClasses]int{
			classRead: 10000, classWrite: 60000, classTx4: 20000,
		},
		tracedOps: 10000,
	},
	{
		name: "wire-write",
		why:  "80% writes over 3 unix-socket gob endpoints in one process: framing, syscalls and decode dominate; the wire-codec work must show here and nowhere on sim-*",
		spec: clusterSpec{nodes: 3, protocol: replication.Quorum{}, wire: true, objects: 512,
			homeOf: func(i, nodes int) int { return i % nodes }},
		mix: mix{readNum: 1, readDen: 5},
		ratePerClient: [numClasses]int{
			classRead: 5000, classWrite: 15000,
		},
		tracedOps: 3000,
	},
	{
		name: "partition-heal",
		why:  "P4 with 1 ms per message through healthy, partitioned and reconcile phases: latency counts protocol rounds, and threat storage, merge and re-evaluation are on the path",
		spec: clusterSpec{nodes: 4, protocol: replication.PrimaryPerPartition{}, netCost: time.Millisecond, objects: 256,
			homeOf: func(i, nodes int) int { return i % nodes }},
		phased: true,
		ratePerClient: [numClasses]int{
			classRead: 1000, classWrite: 1000, classDegraded: 1000,
		},
		tracedOps: 300,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	// setups is how often an untraced run sets up; setup_s is the median.
	setups = 3
	// warmUp is the untimed closed loop that ends every set-up.
	warmUp = 2 * time.Second
	// minP99Samples is the fewest completed operations of a class a window
	// must hold for the class's p99 to be reported at all.
	minP99Samples = 1000
	// phasedOpsPerSecond converts --seconds into partition-heal's fixed
	// per-driver, per-phase write count (1500 at the default 10 s).
	phasedOpsPerSecond = 150
	// lockProbeOps is the per-client length of the pass that runs with the
	// obs tracer on, the only mode in which tx records lock waits.
	lockProbeOps = 1000
)

// Generator streams are numbered by phase, so the fixed-count parts of a run
// replay exactly whatever the time-bound warm-up consumed.
const (
	phaseWarmUp = iota
	phaseMeasured
	phaseDegraded
	phaseLockProbe
)

// partition-heal's drivers sit on n1 and n3, one on each side of the split.
var (
	phasedDrivers = [clients]int{0, 2}
	phasedSides   = [][]int{{0, 1}, {2, 3}}
)

// result is everything one run of one workload reports. Metrics holds what
// the untraced window measured: the bounded end-to-end metrics and the
// timings that the contract files under per-layer (see timedSpecs).
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Metrics   map[string]float64   `json:"metrics"`
	Layers    map[string]float64   `json:"-"` // filed under the report's top-level layers
	Samples   map[string]int       `json:"samples"`
	Slices    map[string][]float64 `json:"slices,omitempty"`
	WindowS   float64              `json:"window_s"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	TraceFile string               `json:"trace_file,omitempty"`
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// account folds one closed-loop run into the all-phases failure count.
func (r *result) account(st *runStats) {
	r.Attempted += st.attempted
	r.Failed += st.failed
	if st.firstErr != nil {
		r.problem("%d of %d operations failed, first: %v", st.failed, st.attempted, st.firstErr)
	}
}

// measured is what the timed part of a run hands to the metric formulas.
type measured struct {
	recs      [numClasses][]rec
	completed int64
	wall      time.Duration // throughput denominator
	used      usage
	counts    delta     // registry growth over the same interval, stragglers joined
	opRate    float64   // completed/s while operations were being issued
	ticks     []cpuTick // a timed window's one-second CPU samples
	phases    *phasedStats
}

// phasedStats is partition-heal's extra output.
type phasedStats struct {
	reconcile                               time.Duration
	replicaPhase                            time.Duration
	constraintPhase                         time.Duration
	pushed, adopted, conflicts, reevaluated int
	snaps                                   [4]obs.Snapshot // before healthy, after healthy, after degraded, after reconcile
	healthyWrites                           int
	degradedWrites                          int
}

// setUp does everything that precedes a timed window and times it: build
// the cluster, create the population, run the counted warm pass (each
// object written once at its home and read once at every replica), and run
// the closed loop untimed for warmUp. With repeat it does so setups times
// and returns the median; all but the last cluster are torn down.
func setUp(def *workloadDef, tr *tracer, seed int64, repeat bool, res *result) (*cluster, *checker, float64, error) {
	var times []float64
	for {
		start := time.Now()
		c, err := buildCluster(def.spec, tr)
		if err != nil {
			return nil, nil, 0, err
		}
		chk, err := c.prepare(!def.phased)
		if err != nil {
			c.close()
			return nil, nil, 0, err
		}
		warmFor := warmUp
		if def.shortWarmUp > 0 {
			warmFor = def.shortWarmUp
		}
		warm := runClosedLoop(def.gens(seed, phaseWarmUp, c.lay), c.execPlain, chk, stopAt{after: warmFor}, def.capHint(2*warmFor.Seconds()))
		res.account(&warm)
		c.quiesce()
		times = append(times, time.Since(start).Seconds())
		if !repeat || len(times) == setups {
			return c, chk, median(times), nil
		}
		c.close()
		runtime.GC()
	}
}

// prepare populates the cluster and runs the warm pass through a fresh
// checker.
func (c *cluster) prepare(singleWriter bool) (*checker, error) {
	if err := c.populate(); err != nil {
		return nil, err
	}
	chk := newChecker(c.lay, clients, singleWriter)
	ctx := context.Background()
	for i := range c.lay.ids {
		// Sequence number 0 sorts before everything a generator writes.
		w := op{class: classWrite, node: c.lay.home[i], n: 1, objs: [4]int{i}, vals: [4]int64{encodeValue(0, i%clients, i)}}
		chk.issue(&w)
		if _, err := c.execPlain(ctx, 0, &w); err != nil {
			return nil, fmt.Errorf("warm pass: %s: %w", w, err)
		}
		for _, r := range c.lay.replicas[i] {
			rd := op{class: classRead, node: r, n: 1, objs: [4]int{i}}
			floor := chk.floor(r, i)
			v, err := c.execPlain(ctx, 0, &rd)
			if err == nil {
				err = chk.read(r, i, floor, v)
			}
			if err != nil {
				return nil, fmt.Errorf("warm pass: %s: %w", rd, err)
			}
		}
	}
	c.quiesce()
	return chk, nil
}

// gens builds one generator per client for the given phase of a run.
func (def *workloadDef) gens(seed int64, phase int, lay *layout) []generator {
	gens := make([]generator, clients)
	for i := range gens {
		if def.phased {
			gens[i] = newPingGen(seed, phase, i, phasedDrivers[i], lay)
		} else {
			gens[i] = newSteadyGen(seed, phase, i, lay, def.mix)
		}
	}
	return gens
}

func (def *workloadDef) capHint(seconds float64) [numClasses]int {
	var h [numClasses]int
	for c, r := range def.ratePerClient {
		h[c] = int(float64(r) * seconds)
	}
	return h
}

// verify checks the state the run left behind: every replica converged and,
// where each object has one writer, every home holds the last value that
// writer issued.
func (c *cluster) verify(chk *checker, res *result) {
	c.quiesce()
	for _, v := range chaos.CheckConverged(c.view(), c.lay.ids) {
		res.problem("not converged: %s", v)
	}
	if !chk.singleWrit {
		return
	}
	for i, id := range c.lay.ids {
		e, err := c.nodes[c.lay.home[i]].Registry.Get(id)
		if err != nil {
			res.problem("home lost %s: %v", id, err)
		} else if got := e.GetInt("value"); got != chk.last[i] {
			res.problem("%s holds %#x at its home, last write was %#x", id, got, chk.last[i])
		}
	}
}

// runWindow is the steady workloads' timed part: a closed loop for the
// given time, then verification.
func runWindow(c *cluster, chk *checker, def *workloadDef, seed int64, window time.Duration, res *result) *measured {
	before := c.obs.Snapshot()
	st := runClosedLoop(def.gens(seed, phaseMeasured, c.lay), c.execPlain, chk, stopAt{after: window}, def.capHint(1.5*window.Seconds()))
	res.account(&st)
	c.quiesce()
	m := &measured{recs: st.recs, completed: st.completed(), wall: st.elapsed, used: st.used, ticks: st.ticks,
		counts: delta{before, c.obs.Snapshot()}}
	m.opRate = float64(m.completed) / m.wall.Seconds()
	c.verify(chk, res)
	return m
}

// runPhased is partition-heal: count writes per driver in the healthy
// system, the same again on both sides of a partition, then heal and
// reconcile exactly as chaos.Execute does — one pass from n1, one from n2.
// exec is the plain or the traced executor.
func runPhased(c *cluster, chk *checker, def *workloadDef, seed int64, count int, exec execFunc, res *result) (*measured, error) {
	hint := [numClasses]int{classRead: count, classWrite: count, classDegraded: count}
	ps := &phasedStats{}

	ps.snaps[0] = c.obs.Snapshot()
	before := readUsage()
	start := time.Now()
	healthy := runClosedLoop(def.gens(seed, phaseMeasured, c.lay), exec, chk, stopAt{ops: 2 * count}, hint)
	res.account(&healthy)
	ps.snaps[1] = c.obs.Snapshot()

	ids := make([][]transport.NodeID, len(phasedSides))
	for s, side := range phasedSides {
		for _, n := range side {
			ids[s] = append(ids[s], c.nodes[n].ID)
		}
	}
	c.net.Partition(ids...)
	gens := def.gens(seed, phaseDegraded, c.lay)
	for _, g := range gens {
		g.(*pingGen).writeClass = classDegraded
	}
	degraded := runClosedLoop(gens, exec, chk, stopAt{ops: 2 * count}, hint)
	res.account(&degraded)
	if degraded.failed > 0 {
		res.problem("%d degraded-mode operations failed: P4 must keep both sides writable", degraded.failed)
	}
	ps.snaps[2] = c.obs.Snapshot()

	c.net.Heal()
	healed := time.Now()
	ctx := context.Background()
	for _, driver := range c.nodes[:2] {
		var peers []transport.NodeID
		for _, n := range c.nodes {
			if n != driver {
				peers = append(peers, n.ID)
			}
		}
		rep, err := reconcile.Run(ctx, driver, peers, reconcile.Handlers{})
		if err != nil {
			return nil, fmt.Errorf("reconcile from %s: %w", driver.ID, err)
		}
		ps.replicaPhase += rep.ReplicaDuration
		ps.constraintPhase += rep.ConstraintDuration
		ps.pushed += rep.Replica.Pushed
		ps.adopted += rep.Replica.Adopted
		ps.conflicts += rep.Replica.Conflicts
		ps.reevaluated += rep.Constraint.Reevaluated
	}
	c.verify(chk, res)
	ps.reconcile = time.Since(healed)
	wall := time.Since(start)
	after := readUsage()
	for _, v := range chaos.CheckNoThreats(c.view()) {
		res.problem("threat survived reconciliation: %s", v)
	}
	ps.snaps[3] = c.obs.Snapshot()

	m := &measured{wall: wall, phases: ps, counts: delta{ps.snaps[0], ps.snaps[3]}}
	m.used = usage{cpu: after.cpu - before.cpu, mallocs: after.mallocs - before.mallocs, bytes: after.bytes - before.bytes}
	// Degraded samples follow the healthy ones on one time axis, so the
	// one-second slices of the pooled reads do not fold onto each other.
	shift := uint32(healthy.elapsed / time.Microsecond)
	for cl := range m.recs {
		m.recs[cl] = healthy.recs[cl]
		for _, r := range degraded.recs[cl] {
			m.recs[cl] = append(m.recs[cl], rec{endUs: r.endUs + shift, latNs: r.latNs})
		}
	}
	ps.healthyWrites = len(healthy.recs[classWrite])
	ps.degradedWrites = len(degraded.recs[classDegraded])
	m.completed = healthy.completed() + degraded.completed()
	m.opRate = float64(healthy.completed()) / healthy.elapsed.Seconds()
	return m, nil
}

// fill turns a measured window into res.Metrics. It refuses when a class
// whose p99 it would report completed too few operations.
func fill(m *measured, setupS float64, res *result) error {
	res.WindowS = m.wall.Seconds()
	ops := float64(m.completed)
	res.Metrics = map[string]float64{
		"setup_s":             setupS,
		"allocs_per_op":       float64(m.used.mallocs) / ops,
		"alloc_bytes_per_op":  float64(m.used.bytes) / ops,
		"messages_per_op":     (m.counts.count("transport.messages") + m.counts.count("transport.failures")) / ops,
		"store_writes_per_op": m.counts.count("persistence.writes") / ops,
		"throughput_ops_s":    ops / m.wall.Seconds(),
		"cpu_us_per_op":       float64(m.used.cpu) / 1e3 / ops,
	}
	// A timed window reports rates as medians over its one-second slices,
	// like the latencies; the phased scenario's fixed work has no slices and
	// reports totals.
	if tput, cpu := sliceRates(&m.recs, m.ticks); len(tput) > 0 {
		res.Metrics["throughput_ops_s"] = median(tput)
		res.Metrics["cpu_us_per_op"] = median(cpu)
		res.Samples["rate_slices"] = len(tput)
		res.Slices = map[string][]float64{"throughput_ops_s": tput, "cpu_us_per_op": cpu}
	}
	lat := map[string][]rec{
		"read":  m.recs[classRead],
		"write": append(append([]rec(nil), m.recs[classWrite]...), m.recs[classTx4]...),
	}
	if m.phases != nil {
		lat["degraded_write"] = m.recs[classDegraded]
		res.Metrics["reconcile_s"] = m.phases.reconcile.Seconds()
	}
	for name, recs := range lat {
		s := summarize(recs)
		res.Samples[name] = s.samples
		res.Samples[name+"_p99_slices"] = s.slices
		if s.samples < minP99Samples {
			return fmt.Errorf("window completed %d %s operations, below the %d a p99 needs", s.samples, name, minP99Samples)
		}
		res.Metrics[name+"_p50_us"] = s.p50us
		res.Metrics[name+"_p99_us"] = s.p99us
		if res.Slices != nil {
			res.Slices[name+"_p50_us"], res.Slices[name+"_p99_us"] = s.p50s, s.p99s
		}
	}
	res.Samples["tx4"] = len(m.recs[classTx4])
	return nil
}

// runWorkload runs one workload once. Every run sets up, measures the
// untraced window and fills Metrics; a traced run (which sets up once) then
// repeats the workload on a cluster whose transport is decorated and fills
// Layers, into which it also copies the window's timings.
func runWorkload(def *workloadDef, seed int64, seconds int, traced bool) (*result, error) {
	res := &result{Workload: def.name, Seed: seed, Samples: map[string]int{}}
	window := time.Duration(seconds) * time.Second
	c, chk, setupS, err := setUp(def, nil, seed, !traced, res)
	if err != nil {
		return nil, err
	}
	var m *measured
	if def.phased {
		m, err = runPhased(c, chk, def, seed, int(window.Seconds()*phasedOpsPerSecond), c.execPlain, res)
	} else {
		m = runWindow(c, chk, def, seed, window, res)
	}
	c.close()
	if err != nil {
		return nil, err
	}
	if err := fill(m, setupS, res); err != nil {
		return nil, err
	}
	if !traced {
		return res, nil
	}
	res.Layers = map[string]float64{}
	for _, s := range timedSpecs {
		res.Layers[s.Name] = res.Metrics[s.Name]
	}
	runtime.GC()
	if err := tracePass(def, seed, m, res, 1); err != nil {
		return nil, err
	}
	// failed_ratio covers every phase, the traced ones included.
	res.Layers["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// tracePass is the second half of a traced run: the same workload at a
// fixed operation count on a cluster whose transport is decorated, then a
// short pass with the obs tracer on (the only mode in which tx records lock
// waits), then the direct probes at 1/probeDiv of their length.
func tracePass(def *workloadDef, seed int64, base *measured, res *result, probeDiv int) error {
	tr := newTracer()
	c, chk, _, err := setUp(def, tr, seed, false, res)
	if err != nil {
		return err
	}
	defer c.close()
	var hint [numClasses]int
	for cl := range hint {
		hint[cl] = def.tracedOps
	}
	var k counters
	var tracedRate float64
	var phased *phasedStats
	if def.phased {
		tr.on.Store(true)
		m, err := runPhased(c, chk, def, seed, def.tracedOps, c.execTraced(tr, true), res)
		tr.on.Store(false)
		if err != nil {
			return err
		}
		ps := m.phases
		// Per-write counts come from the healthy phase alone: degraded and
		// reconciliation traffic is reported under its own names.
		k = counters{ops: 2 * float64(ps.healthyWrites), writes: float64(ps.healthyWrites), delta: delta{ps.snaps[0], ps.snaps[1]}}
		phased = ps
		tracedRate = m.opRate
		res.Samples["traced_ops"] = int(m.completed)
	} else {
		before := c.obs.Snapshot()
		tr.on.Store(true)
		st := runClosedLoop(def.gens(seed, phaseMeasured, c.lay), c.execTraced(tr, false), chk, stopAt{ops: def.tracedOps}, hint)
		c.quiesce()
		tr.on.Store(false)
		res.account(&st)
		k = counters{
			ops:    float64(st.completed()),
			writes: float64(len(st.recs[classWrite]) + len(st.recs[classTx4])),
			delta:  delta{before, c.obs.Snapshot()},
		}
		tracedRate = float64(st.completed()) / st.elapsed.Seconds()
		res.Samples["traced_ops"] = int(st.completed())
	}
	if n := tr.inflight.Load(); n != 0 {
		return fmt.Errorf("%d sends still in flight when the counters were read", n)
	}
	k.bytesPerSend = tr.bytesPerSend()
	layerCounts(k, res.Layers)
	if phased != nil {
		phasedCounts(phased, res.Layers)
	}
	res.Layers["trace.overhead_ratio"] = tracedRate / base.opRate

	before := c.obs.Snapshot()
	c.obs.Tracer().SetEnabled(true)
	lp := runClosedLoop(def.gens(seed, phaseLockProbe, c.lay), c.execPlain, chk, stopAt{ops: lockProbeOps}, hint)
	c.obs.Tracer().SetEnabled(false)
	res.account(&lp)
	waited := delta{before, c.obs.Snapshot()}.histSum("tx.lock.wait")
	res.Layers["tx.lock.wait_us_per_op"] = ratio(waited.Seconds()*1e6, float64(lp.completed()))
	c.verify(chk, res)

	spans := tr.all()
	lt := tr.reduce(spans)
	layerRows(lt, res.Layers)
	printLayerTable(def.name, lt)
	if res.TraceFile, err = tr.writeSpans(def.name, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return runProbes(tr.batch, res.Layers, probeDiv)
}

// counters is the traced pass's raw material for the per-write and per-op
// counts.
type counters struct {
	ops, writes  float64
	bytesPerSend float64
	delta        delta
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts fills the counts taken at layer boundaries.
func layerCounts(k counters, out map[string]float64) {
	d := k.delta.count
	sends := d("transport.messages") + d("transport.failures")
	out["transport.sends_per_write"] = ratio(sends, k.writes)
	out["transport.bytes_per_write"] = k.bytesPerSend * ratio(sends, k.writes)
	out["transport.failures"] = d("transport.failures")
	out["transport.retries"] = d("transport.retries")
	out["group.threshold.early_ratio"] = ratio(d("group.multicast.threshold.early"), d("group.multicast.threshold.rounds"))
	out["group.threshold.stragglers_per_write"] = ratio(d("group.multicast.threshold.stragglers"), k.writes)
	out["replication.batch.rounds_per_write"] = ratio(d("replication.batch.rounds"), k.writes)
	out["replication.batch.ops_per_round"] = ratio(d("replication.batch.size"), d("replication.batch.rounds"))
	out["replication.propagation_errors"] = d("replication.propagation_errors")
	out["replication.conflicts"] = d("replication.conflicts")
	out["persistence.writes_per_write"] = ratio(d("persistence.writes"), k.writes)
	out["persistence.reads_per_op"] = ratio(d("persistence.reads"), k.ops)
	out["tx.lock.timeouts"] = d("tx.lock.timeouts")
	out["tx.rolled_back_ratio"] = ratio(d("tx.rolled_back"), d("tx.begun"))
	out["repository.cache_hit_ratio"] = ratio(d("repository.cache_hits"), d("repository.searches"))
	out["repository.scanned_per_search"] = ratio(d("repository.scanned"), d("repository.searches"))
	out["core.validations_per_op"] = ratio(d("core.validations"), k.ops)
	out["threat.stored"] = d("threat.stored")
	out["threat.folded_ratio"] = ratio(d("threat.folded"), d("threat.folded")+d("threat.stored"))
}

// phasedCounts adds what only partition-heal has — the two reconciliation
// reports, summed — and takes the threat counts from the degraded phase,
// the only one that stores any.
func phasedCounts(ps *phasedStats, out map[string]float64) {
	deg := delta{ps.snaps[1], ps.snaps[2]}.count
	out["core.threats.accepted_per_degraded_write"] = ratio(deg("core.threats.accepted"), float64(ps.degradedWrites))
	out["threat.stored"] = deg("threat.stored")
	out["threat.folded_ratio"] = ratio(deg("threat.folded"), deg("threat.folded")+deg("threat.stored"))
	out["reconcile.replica_phase_s"] = ps.replicaPhase.Seconds()
	out["reconcile.constraint_phase_s"] = ps.constraintPhase.Seconds()
	out["reconcile.pushed"] = float64(ps.pushed)
	out["reconcile.adopted"] = float64(ps.adopted)
	out["reconcile.conflicts"] = float64(ps.conflicts)
	out["reconcile.threats_reevaluated"] = float64(ps.reevaluated)
}

// layerRows flattens the self-time table into metric names.
func layerRows(lt layerTimes, out map[string]float64) {
	for cl := opClass(0); cl < numClasses; cl++ {
		for name, v := range lt.mean[cl] {
			out[rowMetric(cl, name, "mean")] = v
			out[rowMetric(cl, name, "p50")] = lt.p50[cl][name]
		}
	}
}

func rowMetric(cl opClass, span, stat string) string {
	switch span {
	case "op":
		return fmt.Sprintf("%s.op_us.%s", classNames[cl], stat)
	case unattributed:
		return fmt.Sprintf("%s.op.unattributed_us.%s", classNames[cl], stat)
	}
	return fmt.Sprintf("%s.%s.self_us.%s", classNames[cl], span, stat)
}

// delta is the registry's growth between two snapshots.
type delta struct{ before, after obs.Snapshot }

// scoped reports whether full is name itself or name under one node's
// scope ("n3.tx.begun").
func scoped(full, name string) bool {
	if full == name {
		return true
	}
	node, rest, ok := strings.Cut(full, ".")
	return ok && rest == name && node != ""
}

// count sums a counter's growth over the unscoped name and every node.
func (d delta) count(name string) float64 {
	var sum int64
	for full, v := range d.after.Counters {
		if scoped(full, name) {
			sum += v - d.before.Counters[full]
		}
	}
	return float64(sum)
}

// histSum is count's analogue for a histogram's total.
func (d delta) histSum(name string) time.Duration {
	var sum time.Duration
	for full, h := range d.after.Histograms {
		if scoped(full, name) {
			sum += h.Sum - d.before.Histograms[full].Sum
		}
	}
	return sum
}
