package bench

import (
	"fmt"
	"time"

	"dedisys/internal/detect"
	"dedisys/internal/node"
	"dedisys/internal/obs"
	"dedisys/internal/transport"
)

// runDetect measures the failure-detector experiment: how long after a real
// crash the survivors' membership views exclude the failed node (detection
// latency), and how long after its recovery the views re-admit it (rejoin
// latency), per suspicion policy. Under the topology oracle both latencies
// are zero by construction; the detector pays for its realism in lag.
func runDetect(cfg Config) (*Result, error) {
	interval := cfg.HeartbeatInterval
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	res := &Result{
		ID:      "exp-detect",
		Title:   "failure detection and rejoin latency by suspicion policy",
		Columns: []string{"detect-ms", "rejoin-ms", "heartbeats", "suspicions", "false-susp"},
	}
	policies := []detect.Policy{
		detect.FixedTimeout{Timeout: cfg.SuspectTimeout},
		detect.PhiAccrual{},
	}
	for _, pol := range policies {
		if err := runDetectCase(cfg, res, interval, pol); err != nil {
			return nil, fmt.Errorf("%s: %w", pol.Name(), err)
		}
	}
	res.AddNote("heartbeat interval %s; latencies are wall-clock from the topology change until n1's view reflects it", interval)
	res.AddNote("oracle-driven membership (the default) has zero detection latency by construction")
	return res, nil
}

func runDetectCase(cfg Config, res *Result, interval time.Duration, pol detect.Policy) error {
	netOpts := []transport.Option{}
	if cfg.NetCost > 0 {
		netOpts = append(netOpts, transport.WithCost(transport.CostModel{PerMessage: cfg.NetCost}))
	}
	// A shared cfg.Obs already holds the earlier cases' counts: each row is
	// the difference of two registry reads.
	base := cfg.Obs
	if base == nil {
		base = obs.New()
	}
	counters := []string{".detect.heartbeats_sent", ".detect.suspicions", ".detect.false_suspicions"}
	before := make([]int64, len(counters))
	for i, name := range counters {
		before[i] = sumCounters(base, name)
	}
	c, err := node.NewCluster(3, netOpts, func(o *node.Options) {
		o.DisableCCM = true
		o.DisableReplication = true
		o.Obs = base
		o.Detect = &detect.Config{Interval: interval, Policy: pol}
	})
	if err != nil {
		return err
	}
	defer c.Stop()

	// Warm up: let enough heartbeat rounds complete that phi-accrual has an
	// interarrival distribution to work with.
	time.Sleep(8 * interval)

	crashed := transport.NodeID("n3")
	c.Net.Crash(crashed)
	detectLat, err := awaitViewMembership(c, "n1", crashed, false)
	if err != nil {
		return err
	}
	c.Net.Recover(crashed)
	rejoinLat, err := awaitViewMembership(c, "n1", crashed, true)
	if err != nil {
		return err
	}

	cells := []float64{
		float64(detectLat) / float64(time.Millisecond),
		float64(rejoinLat) / float64(time.Millisecond),
	}
	for i, name := range counters {
		cells = append(cells, float64(sumCounters(base, name)-before[i]))
	}
	res.AddRow(pol.Name(), cells...)
	return nil
}

// awaitViewMembership polls observer's installed view until member's presence
// matches want, returning the elapsed wall-clock time.
func awaitViewMembership(c *node.Cluster, observer, member transport.NodeID, want bool) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(10 * time.Second)
	for {
		if c.GMS.ViewOf(observer).Contains(member) == want {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("bench: %s's view never reached %s∈view=%t", observer, member, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
