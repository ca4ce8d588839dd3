// Command dedisys-experiments regenerates the dissertation's evaluation
// tables and figures (see DESIGN.md for the experiment index).
//
// Usage:
//
//	dedisys-experiments [-quick] [-ops N] [-runs N] [-netcost D] [-storecost D]
//	                    [-cpuprofile F] [-memprofile F] [id ...]
//
// Without arguments all experiments run at the calibrated default scale; one
// or more experiment IDs (e.g. fig5.2 exp-psc) restrict the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"dedisys/internal/bench"
	"dedisys/internal/obs"
	"dedisys/internal/replication"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dedisys-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dedisys-experiments", flag.ContinueOnError)
	var (
		quick          = fs.Bool("quick", false, "small scale, zero simulated hardware costs")
		list           = fs.Bool("list", false, "list experiment IDs and exit")
		ops            = fs.Int("ops", 0, "operations per measured case (default 1000)")
		runs           = fs.Int("runs", 0, "scenario repetitions for the chapter-2 study (default 20)")
		netCost        = fs.Duration("netcost", -1, "simulated per-message network cost (default 120µs)")
		storeCost      = fs.Duration("storecost", -1, "simulated per-write database cost (default 80µs)")
		hbInterval     = fs.Duration("heartbeat-interval", 0, "exp-detect: failure detector heartbeat period (default 5ms)")
		suspectTimeout = fs.Duration("suspect-timeout", 0, "exp-detect: fixed-timeout silence tolerance (default 5 intervals)")
		protocol       = fs.String("protocol", "", "replica-control protocol for every experiment cluster: P4, primary-backup, primary-partition, adaptive-voting or quorum")
		quorumK        = fs.Int("quorum-threshold", 0, "acks (incl. the coordinator) a quorum commit waits for; 0 = strict majority (requires -protocol=quorum)")
		groups         = fs.Int("groups", 0, "exp-shard: replica-group count for the sharded cases (0 = its defaults, G=2 and G=4)")
		rf             = fs.Int("replication-factor", 0, "exp-shard: nodes replicating each group (0 = its default of 3)")
		gossipFanout   = fs.Int("gossip-fanout", 0, "exp-gossip: peers contacted per anti-entropy round (0 = the gossip default of 2)")

		csvDir     = fs.String("csv", "", "also write each result as CSV into this directory")
		metrics    = fs.Bool("metrics", false, "dump the shared metrics registry after each experiment")
		trace      = fs.Bool("trace", false, "record structured events and dump the trace after each experiment")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *ops > 0 {
		cfg.Ops = *ops
		cfg.Entities = *ops
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *netCost >= 0 {
		cfg.NetCost = *netCost
	}
	if *storeCost >= 0 {
		cfg.StoreCost = *storeCost
	}
	if *hbInterval > 0 {
		cfg.HeartbeatInterval = *hbInterval
	}
	if *suspectTimeout > 0 {
		cfg.SuspectTimeout = *suspectTimeout
	}
	if *protocol != "" || *quorumK != 0 {
		if *quorumK != 0 && *protocol != "quorum" && *protocol != "q" {
			return fmt.Errorf("-quorum-threshold requires -protocol=quorum")
		}
		// Validate the name up front so a typo fails before an hour-long run.
		if _, err := replication.ProtocolByName(*protocol, *quorumK); err != nil {
			return err
		}
		cfg.Protocol = *protocol
		cfg.QuorumThreshold = *quorumK
	}
	cfg.Groups = *groups
	cfg.ReplicationFactor = *rf
	cfg.GossipFanout = *gossipFanout
	var observer *obs.Observer
	if *metrics || *trace {
		observer = obs.New()
		observer.Tracer().SetEnabled(*trace)
		cfg.Obs = observer
	}

	selected := bench.Registry()
	if ids := fs.Args(); len(ids) > 0 {
		selected = selected[:0]
		for _, id := range ids {
			e, err := bench.ByID(id)
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeMemProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "dedisys-experiments:", err)
			}
		}()
	}
	start := time.Now()
	for _, e := range selected {
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		res.Print(os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				return err
			}
		}
		if observer != nil {
			dumpObservability(os.Stdout, e.ID, observer, *metrics, *trace)
			observer.Registry().Reset()
			observer.Tracer().Reset()
		}
	}
	fmt.Printf("%d experiment(s) completed in %s\n", len(selected), time.Since(start).Round(time.Millisecond))
	return nil
}

// dumpObservability prints the registry and/or trace gathered during one
// experiment.
func dumpObservability(w *os.File, id string, o *obs.Observer, metrics, trace bool) {
	if metrics {
		fmt.Fprintf(w, "-- metrics (%s) --\n", id)
		o.Snapshot().WriteText(w)
	}
	if trace {
		fmt.Fprintf(w, "-- trace (%s, %d events) --\n", id, o.Tracer().Len())
		o.Tracer().WriteText(w)
	}
}

// writeMemProfile snapshots the allocation profile after a final GC, so the
// numbers reflect live retention plus cumulative allocation sites.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}

// writeCSV stores one result as <dir>/<id>.csv.
func writeCSV(dir string, res *bench.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, res.ID+".csv"))
	if err != nil {
		return err
	}
	res.WriteCSV(f)
	return f.Close()
}
