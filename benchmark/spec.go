package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricSpec is one named metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndSpecs are the metrics the acceptance harness bounds: the share of
// the parent commit's median by which each may worsen. Every workload
// reports every one of them, untraced, and none can be 0. They are the
// figures that repeat on this box — costs counted per completed operation,
// and a set-up time that ends with a fixed-length warm-up. What a caller
// sees first, latency and throughput, is in timedSpecs.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.02},
	{"alloc_bytes_per_op", "B", lower, 0.02},
	{"messages_per_op", "count", lower, 0.02},
	{"store_writes_per_op", "count", lower, 0.02},
}

// timedSpecs are the end-to-end timings, measured in the same untraced
// window as the metrics above. The issue wants them bounded at 10%; on this
// shared 2-vCPU box they cannot be (README, "Noise": the same commit runs
// 22k and 49k sim-write operations per second half an hour apart), and by
// the issue's own rule a timing that cannot be held to its bound is reported
// without one, not given a looser one. The harness files unbounded metrics
// under per_layer, which it reads from traced runs: a --trace 1 run copies
// them from its untraced window. On workloads other than partition-heal the
// last three read 0.
var timedSpecs = []metricSpec{
	{Name: "throughput_ops_s", Unit: "1/s", Better: higher},
	{Name: "read_p50_us", Unit: "us", Better: lower},
	{Name: "read_p99_us", Unit: "us", Better: lower},
	{Name: "write_p50_us", Unit: "us", Better: lower},
	{Name: "write_p99_us", Unit: "us", Better: lower},
	{Name: "cpu_us_per_op", Unit: "us", Better: lower},
	{Name: "degraded_write_p50_us", Unit: "us", Better: lower},
	{Name: "degraded_write_p99_us", Unit: "us", Better: lower},
	{Name: "reconcile_s", Unit: "s", Better: lower},
}

// layerRowSpans lists, per operation class, the spans whose exclusive time
// the traced pass reports under contract names. Other spans that turn up
// (threat exchange kinds while partitioned) appear in the full report only.
var layerRowSpans = [numClasses][]string{
	classRead:     {"tx.begin", "node.invoke_tx", "tx.commit"},
	classWrite:    {"tx.begin", "node.invoke_tx", "tx.commit", "transport.send", "transport.handle.repl_batch", "transport.handle.node_invoke"},
	classTx4:      {"tx.begin", "node.invoke_tx", "tx.commit", "transport.send", "transport.handle.repl_batch"},
	classDegraded: {"transport.send", "transport.handle.repl_batch", "transport.handle.node_invoke"},
}

// perLayerSpecs are the metrics of a traced run: the window's timings, then
// the single-layer metrics in three families (spans, counts, probes). A
// metric a workload has nothing to say about reads 0.
func perLayerSpecs() []metricSpec {
	specs := append([]metricSpec(nil), timedSpecs...)
	specs = append(specs,
		metricSpec{Name: "failed_ratio", Unit: "ratio", Better: lower},
		metricSpec{Name: "reconcile.replica_phase_s", Unit: "s", Better: lower},
		metricSpec{Name: "reconcile.constraint_phase_s", Unit: "s", Better: lower},
		metricSpec{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher},
	)
	for cl := opClass(0); cl < numClasses; cl++ {
		for _, stat := range []string{"mean", "p50"} {
			specs = append(specs, metricSpec{Name: rowMetric(cl, "op", stat), Unit: "us", Better: lower})
			for _, sp := range layerRowSpans[cl] {
				specs = append(specs, metricSpec{Name: rowMetric(cl, sp, stat), Unit: "us", Better: lower})
			}
			specs = append(specs, metricSpec{Name: rowMetric(cl, unattributed, stat), Unit: "us", Better: lower})
		}
	}
	specs = append(specs, []metricSpec{
		{Name: "transport.sends_per_write", Unit: "count", Better: lower},
		{Name: "transport.bytes_per_write", Unit: "B", Better: lower},
		{Name: "transport.failures", Unit: "count", Better: lower},
		{Name: "transport.retries", Unit: "count", Better: lower},
		{Name: "group.threshold.early_ratio", Unit: "ratio", Better: higher},
		{Name: "group.threshold.stragglers_per_write", Unit: "count", Better: lower},
		{Name: "replication.batch.rounds_per_write", Unit: "count", Better: lower},
		{Name: "replication.batch.ops_per_round", Unit: "count", Better: higher},
		{Name: "replication.propagation_errors", Unit: "count", Better: lower},
		{Name: "replication.conflicts", Unit: "count", Better: lower},
		{Name: "persistence.writes_per_write", Unit: "count", Better: lower},
		{Name: "persistence.reads_per_op", Unit: "count", Better: lower},
		{Name: "tx.lock.wait_us_per_op", Unit: "us", Better: lower},
		{Name: "tx.lock.timeouts", Unit: "count", Better: lower},
		{Name: "tx.rolled_back_ratio", Unit: "ratio", Better: lower},
		{Name: "repository.cache_hit_ratio", Unit: "ratio", Better: higher},
		{Name: "repository.scanned_per_search", Unit: "count", Better: lower},
		{Name: "core.validations_per_op", Unit: "count", Better: lower},
		{Name: "core.threats.accepted_per_degraded_write", Unit: "count", Better: lower},
		{Name: "threat.stored", Unit: "count", Better: lower},
		{Name: "threat.folded_ratio", Unit: "ratio", Better: higher},
		{Name: "reconcile.pushed", Unit: "count", Better: lower},
		{Name: "reconcile.adopted", Unit: "count", Better: lower},
		{Name: "reconcile.conflicts", Unit: "count", Better: lower},
		{Name: "reconcile.threats_reevaluated", Unit: "count", Better: lower},
	}...)
	for _, p := range []struct{ name, unit string }{
		{"invocation.dispatch_ns", "ns"},
		{"repository.lookup_ns", "ns"},
		{"placement.place_ns", "ns"},
		{"tx.begin_lock_commit_ns", "ns"},
		{"persistence.put_ns", "ns"},
		{"persistence.get_ns", "ns"},
		{"threat.add_ns", "ns"},
		{"transport.send_ns", "ns"},
		{"group.multicast_threshold_us", "us"},
		{"wiretransport.send_rtt_us", "us"},
		{"wiretransport.codec_roundtrip_us", "us"},
		{"gossip.round_insync_us", "us"},
	} {
		base := p.name[:len(p.name)-len(p.unit)-1]
		specs = append(specs,
			metricSpec{Name: p.name, Unit: p.unit, Better: lower},
			metricSpec{Name: base + "_allocs", Unit: "count", Better: lower})
	}
	return append(specs, metricSpec{Name: "wiretransport.frame_bytes", Unit: "B", Better: lower})
}

// benchmarkJSON renders BENCHMARK.json from the tables above; the file in
// the repository root is this output, and a test keeps the two equal.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type workloadSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs(),
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadSpec{w.name, w.why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// contractMetrics selects from a result exactly the names the contract
// lists for the run's mode, each with its unit.
func contractMetrics(res *result, traced bool) (map[string]any, error) {
	specs, values := endToEndSpecs, res.Metrics
	if traced {
		specs, values = perLayerSpecs(), res.Layers
	}
	out := make(map[string]any, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload %s did not produce %s", res.Workload, s.Name)
		}
		out[s.Name] = map[string]any{"value": v, "unit": s.Unit}
	}
	return out, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
