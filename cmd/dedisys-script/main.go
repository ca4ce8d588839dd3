// Command dedisys-script runs DedisysTest-style scenario scripts (§5.1)
// against an in-process DeDiSys cluster: build nodes, deploy declarative
// constraints, run business operations, inject partitions and crashes,
// reconcile, and assert on the outcome.
//
// Usage:
//
//	dedisys-script scenario.dsc        # run a script file
//	dedisys-script -                   # read the script from stdin
//	dedisys-script -demo               # run the built-in §1.3 demo scenario
//
// See internal/script for the command reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dedisys/internal/detect"
	"dedisys/internal/obs"
	"dedisys/internal/replication"
	"dedisys/internal/script"
)

// demoScenario is the §1.3 flight booking story.
const demoScenario = `
echo == flight booking scenario (dissertation section 1.3) ==
constraint Ticket HARD RELAXABLE UNCHECKABLE sold <= seats
cluster 2
create n1 f1 seats=80 sold=70
echo healthy: selling within capacity works, overbooking is rejected
set n1 f1 sold 75
fail set n1 f1 sold 81
echo injecting a network partition; both sides keep selling under threats
partition n1 | n2
set n1 f1 sold 77
set n2 f1 sold 78
threats n1 1
echo healing and reconciling
heal
reconcile n1
threats n1 0
echo done: replicas converged, threats resolved
`

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dedisys-script:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("dedisys-script", flag.ContinueOnError)
	demo := fs.Bool("demo", false, "run the built-in flight booking scenario")
	metrics := fs.Bool("metrics", false, "dump the metrics registry after the run")
	trace := fs.Bool("trace", false, "record structured events and dump the trace after the run")
	detector := fs.String("detector", "", "drive membership from heartbeat failure detection: fixed or phi")
	hbInterval := fs.Duration("heartbeat-interval", 0, "failure detector heartbeat period (default 10ms)")
	suspectTimeout := fs.Duration("suspect-timeout", 0, "silence tolerance before suspecting a peer (default 5 intervals)")
	protocol := fs.String("protocol", "", "default replica-control protocol for 'cluster' commands: P4, primary-backup, primary-partition, adaptive-voting or quorum")
	quorumThreshold := fs.Int("quorum-threshold", 0, "acks (incl. the coordinator) a quorum commit waits for; 0 = strict majority (requires -protocol=quorum)")
	groups := fs.Int("groups", 0, "shard the object space across this many replica groups (0 = full replication)")
	rf := fs.Int("replication-factor", 0, "nodes replicating each group; 0 = all nodes (requires -groups)")
	gossipInterval := fs.Duration("gossip-interval", 0, "run the anti-entropy gossip loop on 'cluster' nodes with this period (0 = off)")
	gossipFanout := fs.Int("gossip-fanout", 0, "peers contacted per gossip round (default 2; requires -gossip-interval)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rf != 0 && *groups == 0 {
		return fmt.Errorf("-replication-factor requires -groups")
	}
	if *gossipFanout != 0 && *gossipInterval == 0 {
		return fmt.Errorf("-gossip-fanout requires -gossip-interval")
	}
	var proto replication.Protocol
	if *protocol != "" || *quorumThreshold != 0 {
		if *quorumThreshold != 0 && *protocol != "quorum" && *protocol != "q" {
			return fmt.Errorf("-quorum-threshold requires -protocol=quorum")
		}
		p, err := replication.ProtocolByName(*protocol, *quorumThreshold)
		if err != nil {
			return err
		}
		proto = p
	}
	detectCfg, err := detectConfig(*detector, *hbInterval, *suspectTimeout)
	if err != nil {
		return err
	}
	var src io.Reader
	switch {
	case *demo:
		src = strings.NewReader(demoScenario)
	case fs.NArg() == 1 && fs.Arg(0) == "-":
		src = stdin
	case fs.NArg() == 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		src = f
	default:
		return fmt.Errorf("usage: dedisys-script [-demo] [-metrics] [-trace] [-detector fixed|phi] <scenario-file|->")
	}
	eng := script.New(stdout)
	eng.Detect = detectCfg
	eng.Protocol = proto
	eng.Groups = *groups
	eng.ReplicationFactor = *rf
	eng.GossipInterval = *gossipInterval
	eng.GossipFanout = *gossipFanout
	if *metrics || *trace {
		eng.Obs = obs.New()
		eng.Obs.Tracer().SetEnabled(*trace)
	}
	runErr := eng.Run(src)
	if eng.Obs != nil {
		if *metrics {
			fmt.Fprintln(stdout, "-- metrics --")
			eng.Obs.Snapshot().WriteText(stdout)
		}
		if *trace {
			fmt.Fprintf(stdout, "-- trace (%d events) --\n", eng.Obs.Tracer().Len())
			eng.Obs.Tracer().WriteText(stdout)
		}
	}
	return runErr
}

// detectConfig turns the -detector/-heartbeat-interval/-suspect-timeout flags
// into a detector configuration (nil when failure detection is off).
func detectConfig(policy string, interval, timeout time.Duration) (*detect.Config, error) {
	if policy == "" {
		if interval > 0 || timeout > 0 {
			return nil, fmt.Errorf("-heartbeat-interval/-suspect-timeout require -detector")
		}
		return nil, nil
	}
	cfg := &detect.Config{Interval: interval, SuspectTimeout: timeout}
	switch policy {
	case "fixed":
		// default policy
	case "phi":
		cfg.Policy = detect.PhiAccrual{}
	default:
		return nil, fmt.Errorf("unknown detector policy %q (want fixed or phi)", policy)
	}
	return cfg, nil
}
