// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the assembled middleware, end-to-end metrics measured
// untraced, and a traced pass that budgets the same operations layer by
// layer from outside. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// report is the machine-readable output of a run over one or more
// workloads.
type report struct {
	Commit     string                        `json:"commit"`
	Go         string                        `json:"go"`
	NumCPU     int                           `json:"num_cpu"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	Clients    int                           `json:"clients"`
	Seed       int64                         `json:"seed"`
	Seconds    int                           `json:"seconds"`
	Workloads  map[string]*result            `json:"workloads"`
	Layers     map[string]map[string]float64 `json:"layers,omitempty"`
	Repeat     *repeatReport                 `json:"repeat,omitempty"`
}

func newReport(seed int64, seconds int) *report {
	r := &report{
		Commit: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clients, Seed: seed, Seconds: seconds,
		Workloads: map[string]*result{}, Layers: map[string]map[string]float64{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				r.Commit = s.Value
			}
		}
	}
	return r
}

// add files one workload's results: the untraced run's (or, alone, the
// traced run's) under workloads, the traced run's per-layer metrics under
// layers, and the failures of both.
func (r *report) add(untraced, traced *result) {
	res := untraced
	if traced != nil {
		r.Layers[traced.Workload] = traced.Layers
		if res == nil {
			res = traced
		} else {
			res.Attempted += traced.Attempted
			res.Failed += traced.Failed
			res.Problems = append(res.Problems, traced.Problems...)
			res.TraceFile = traced.TraceFile
		}
	}
	r.Workloads[res.Workload] = res
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload  = flag.String("workload", "all", "workload to run: all, or one of sim-read, sim-write, wire-write, partition-heal")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed generates the same operations")
		seconds   = flag.Int("seconds", defaultSeconds, "length of each timed window")
		trace     = flag.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics (traced pass); empty: both")
		repeat    = flag.Int("repeat", 0, "run the set this many times on consecutive seeds and report medians, quartiles and spread")
		out       = flag.String("out", "", "write the full JSON report here instead of standard output")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printSpec {
		data, err := benchmarkJSON(defaultSeconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		os.Stdout.Write(data)
		return 0
	}
	if *seconds < 1 || (*trace != "" && *trace != "0" && *trace != "1") {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be at least 1 and --trace one of 0, 1")
		return 2
	}
	defs := workloads
	if *workload != "all" {
		def := workloadByName(*workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		defs = []*workloadDef{def}
	}
	untraced, traced := *trace != "1", *trace != "0"

	rep := newReport(*seed, *seconds)
	fmt.Fprintf(os.Stderr, "benchmark: commit %s, %s, NumCPU %d, GOMAXPROCS %d, %d closed-loop clients, seed %d, %d s windows\n",
		rep.Commit, rep.Go, rep.NumCPU, rep.GOMAXPROCS, clients, *seed, *seconds)

	if *repeat > 0 {
		rr, err := runRepeat(defs, *seed, *seconds, *repeat, untraced, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		rep.Repeat = rr
		rr.print(os.Stderr)
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !rr.Correct {
			return 1
		}
		return 0
	}

	// One workload in one mode is the acceptance harness's calling
	// convention: the full report goes to --out only, and the last line of
	// standard output is the harness's result object.
	single := len(defs) == 1 && *trace != ""
	ok := true
	var last *result
	for _, def := range defs {
		var u, t *result
		var err error
		if untraced {
			if u, err = runWorkload(def, *seed, *seconds, false); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: refusing to report: %v\n", def.name, err)
				return 1
			}
			last = u
		}
		if traced {
			if t, err = runWorkload(def, *seed, *seconds, true); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (traced): refusing to report: %v\n", def.name, err)
				return 1
			}
			last = t
		}
		for _, res := range []*result{u, t} {
			if res != nil {
				printResult(os.Stderr, res)
				ok = ok && res.correct()
			}
		}
		rep.add(u, t)
	}
	if !single || *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if single {
		metrics, err := contractMetrics(last, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		line, err := json.Marshal(map[string]any{
			"correct": last.correct(), "attempted": last.Attempted, "failed": last.Failed, "metrics": metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED correctness checks")
		return 1
	}
	return 0
}
