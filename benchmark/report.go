package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// printResult renders one run as the human table.
func printResult(w io.Writer, res *result) {
	status := "ok"
	if !res.correct() {
		status = "FAILED"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  window %.2fs  attempted %d  failed %d  %s ==\n",
		res.Workload, res.Seed, res.WindowS, res.Attempted, res.Failed, status)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	if res.Layers == nil {
		for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), timedSpecs...) {
			if v, ok := res.Metrics[s.Name]; ok {
				fmt.Fprintf(w, "  %-22s %14.4f %s\n", s.Name, v, s.Unit)
			}
		}
		fmt.Fprintf(w, "  samples: %d reads, %d writes (%d of them tx4); p99 = median over %d / %d one-second slices\n",
			res.Samples["read"], res.Samples["write"], res.Samples["tx4"], res.Samples["read_p99_slices"], res.Samples["write_p99_slices"])
		return
	}
	units := map[string]string{}
	for _, s := range perLayerSpecs() {
		units[s.Name] = s.Unit
	}
	for _, name := range sortedKeys(res.Layers) {
		fmt.Fprintf(w, "  %-58s %14.4f %s\n", name, res.Layers[name], units[name])
	}
	fmt.Fprintf(w, "  spans: %s\n", res.TraceFile)
}

// printLayerTable renders the traced pass's time budget: per operation
// class, each span's exclusive share of the operation, the remainder no
// span accounts for, and the check that the rows add up to the op span.
func printLayerTable(workload string, lt layerTimes) {
	w := os.Stderr
	for cl := opClass(0); cl < numClasses; cl++ {
		if lt.ops[cl] == 0 {
			continue
		}
		fmt.Fprintf(w, "\n-- %s %s: exclusive time per operation over %d traced operations --\n", workload, classNames[cl], lt.ops[cl])
		fmt.Fprintf(w, "  %-40s %12s %12s\n", "span", "mean_us", "p50_us")
		var names []string
		for name := range lt.mean[cl] {
			if name != "op" && name != unattributed {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		sum := 0.0
		for _, name := range append(names, unattributed) {
			fmt.Fprintf(w, "  %-40s %12.3f %12.3f\n", name, lt.mean[cl][name], lt.p50[cl][name])
			sum += lt.mean[cl][name]
		}
		op := lt.mean[cl]["op"]
		fmt.Fprintf(w, "  %-40s %12.3f %12.3f\n", "op", op, lt.p50[cl]["op"])
		fmt.Fprintf(w, "  rows sum to %.3f us = %.2f%% of the op span mean\n", sum, 100*sum/op)
	}
}

// spread is one metric's distribution over the repeats of one workload.
type spread struct {
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3-q1)/median, what the bound is held against
	Bound    float64   `json:"bound,omitempty"`
	Exceeded bool      `json:"exceeded,omitempty"`
	Values   []float64 `json:"values"`
}

// repeatReport is --repeat's output: workload -> metric -> spread, for the
// untraced window's metrics and, when the traced pass ran, the per-layer ones.
type repeatReport struct {
	Runs     int                           `json:"runs"`
	Correct  bool                          `json:"correct"`
	EndToEnd map[string]map[string]*spread `json:"end_to_end"`
	PerLayer map[string]map[string]*spread `json:"per_layer,omitempty"`
	Problems []string                      `json:"problems,omitempty"`
}

// runRepeat runs the set n times on seeds seed, seed+1, … so that two
// invocations with the same arguments replay the same operations run for
// run.
func runRepeat(defs []*workloadDef, seed int64, seconds, n int, untraced, traced bool) (*repeatReport, error) {
	rr := &repeatReport{Runs: n, Correct: true, EndToEnd: map[string]map[string]*spread{}, PerLayer: map[string]map[string]*spread{}}
	collect := func(into map[string]map[string]*spread, workload string, values map[string]float64) {
		if into[workload] == nil {
			into[workload] = map[string]*spread{}
		}
		for name, v := range values {
			if into[workload][name] == nil {
				into[workload][name] = &spread{}
			}
			into[workload][name].Values = append(into[workload][name].Values, v)
		}
	}
	for i := 0; i < n; i++ {
		for _, def := range defs {
			for _, mode := range []bool{false, true} {
				if (mode && !traced) || (!mode && !untraced) {
					continue
				}
				res, err := runWorkload(def, seed+int64(i), seconds, mode)
				if err != nil {
					return nil, fmt.Errorf("%s run %d: refusing to report: %w", def.name, i, err)
				}
				fmt.Fprintf(os.Stderr, "run %d/%d %s traced=%v: attempted %d failed %d\n", i+1, n, def.name, mode, res.Attempted, res.Failed)
				for _, p := range res.Problems {
					rr.Correct = false
					rr.Problems = append(rr.Problems, fmt.Sprintf("%s seed %d: %s", def.name, res.Seed, p))
				}
				if mode {
					collect(rr.PerLayer, def.name, res.Layers)
				} else {
					collect(rr.EndToEnd, def.name, res.Metrics)
				}
			}
		}
	}
	bounds := map[string]float64{}
	for _, s := range endToEndSpecs {
		bounds[s.Name] = s.Bound
	}
	for _, group := range []map[string]map[string]*spread{rr.EndToEnd, rr.PerLayer} {
		for _, metrics := range group {
			for _, s := range metrics {
				s.Q1, s.Median, s.Q3 = quartiles(s.Values)
				if s.Median != 0 {
					s.Spread = (s.Q3 - s.Q1) / s.Median
				}
			}
		}
	}
	for _, metrics := range rr.EndToEnd {
		for name, s := range metrics {
			// Only the bounded metrics are held to anything, and setup_s only
			// between the medians of two sets of runs.
			s.Bound = bounds[name]
			s.Exceeded = s.Bound > 0 && name != "setup_s" && s.Spread > s.Bound
		}
	}
	return rr, nil
}

func (rr *repeatReport) print(w io.Writer) {
	table := func(title string, group map[string]map[string]*spread) {
		var workloads []string
		for name := range group {
			workloads = append(workloads, name)
		}
		sort.Strings(workloads)
		for _, wl := range workloads {
			fmt.Fprintf(w, "\n== %s: %s over %d runs ==\n", wl, title, rr.Runs)
			fmt.Fprintf(w, "  %-58s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
			var names []string
			for name := range group[wl] {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				s := group[wl][name]
				flag := ""
				if s.Exceeded {
					flag = fmt.Sprintf("  EXCEEDS bound %.0f%%", 100*s.Bound)
				}
				fmt.Fprintf(w, "  %-58s %14.4f %14.4f %14.4f %7.2f%%%s\n", name, s.Median, s.Q1, s.Q3, 100*s.Spread, flag)
			}
		}
	}
	table("end-to-end", rr.EndToEnd)
	table("per-layer", rr.PerLayer)
	for _, p := range rr.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
}
