package node

import (
	"testing"
	"time"

	"dedisys/internal/core"
	"dedisys/internal/detect"
	"dedisys/internal/group"
	"dedisys/internal/transport"
)

// newDetectorCluster builds a cluster whose membership is driven by
// heartbeat failure detection instead of the topology oracle.
func newDetectorCluster(t *testing.T, size int, cfg detect.Config) *Cluster {
	t.Helper()
	c, err := NewCluster(size, nil, func(o *Options) {
		o.Detect = &cfg
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %s: %s", timeout, msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDetectorCrashSuspicionRejoinRoundTrip is the full lifecycle: a crash is
// detected only after the suspicion timeout (views lag topology), degraded
// mode is entered, and recovery is discovered and re-admitted with a bounded
// rejoin latency.
func TestDetectorCrashSuspicionRejoinRoundTrip(t *testing.T) {
	interval := 5 * time.Millisecond
	c := newDetectorCluster(t, 3, detect.Config{Interval: interval, SuspectTimeout: 25 * time.Millisecond})
	n1 := c.Node(0)

	// Initial views are full: detectors seed optimistically at Start.
	if v := c.GMS.ViewOf(n1.ID); v.Size() != 3 {
		t.Fatalf("initial view size = %d, want 3", v.Size())
	}
	if n1.Mode() != core.Healthy {
		t.Fatalf("initial mode = %s, want healthy", n1.Mode())
	}

	crashStart := time.Now()
	c.Net.Crash("n3")
	// The defining property of message-driven membership: immediately after
	// the crash the view still contains the dead node.
	if v := c.GMS.ViewOf(n1.ID); !v.Contains("n3") {
		t.Fatal("view excluded n3 instantly; detector views must lag the topology")
	}
	waitUntil(t, 5*time.Second, func() bool {
		return !c.GMS.ViewOf(n1.ID).Contains("n3")
	}, "n1's installed view excludes the crashed n3")
	wallDetect := time.Since(crashStart)
	if wallDetect < interval {
		t.Fatalf("detection completed in %s, faster than one heartbeat interval %s", wallDetect, interval)
	}
	if wallDetect > time.Second {
		t.Fatalf("detection took %s, want well under 1s with a 25ms timeout", wallDetect)
	}
	if !c.GMS.Degraded(n1.ID) {
		t.Fatal("membership not degraded after suspicion")
	}
	waitUntil(t, time.Second, func() bool { return n1.Mode() == core.Degraded },
		"n1 classifies itself degraded")

	h := c.Obs.Snapshot().Histograms["n1.detect.detection_latency"]
	if h.Count < 1 || h.Mean < interval || h.Mean > time.Second {
		t.Fatalf("detector-measured latency = %s over %d samples, want within [%s, 1s]", h.Mean, h.Count, interval)
	}
	if got := counter(t, c.Obs, "n1.detect.false_suspicions"); got != 0 {
		t.Fatalf("false suspicions = %d for a genuine crash", got)
	}

	recoverStart := time.Now()
	c.Net.Recover("n3")
	waitUntil(t, 5*time.Second, func() bool {
		return c.GMS.ViewOf(n1.ID).Contains("n3") && n1.Mode() == core.Healthy
	}, "n1 re-admits the recovered n3 and returns to healthy")
	if wallRejoin := time.Since(recoverStart); wallRejoin > time.Second {
		t.Fatalf("rejoin took %s, want well under 1s", wallRejoin)
	}
	if h := c.Obs.Snapshot().Histograms["n1.detect.rejoin_latency"]; h.Count < 1 || h.Mean <= 0 {
		t.Fatalf("rejoin latency = %s over %d samples, want a positive sample", h.Mean, h.Count)
	}
}

// TestDetectorFalseSuspicionRecovers drops only heartbeat traffic on one
// link: the nodes remain reachable, so the resulting suspicion is false, the
// cluster wrongly degrades, and once the loss clears the views heal.
func TestDetectorFalseSuspicionRecovers(t *testing.T) {
	interval := 5 * time.Millisecond
	c := newDetectorCluster(t, 3, detect.Config{Interval: interval, SuspectTimeout: 25 * time.Millisecond})
	n1 := c.Node(0)

	c.Net.SetDrop(func(from, to transport.NodeID, kind string) bool {
		if kind != detect.MsgHeartbeat {
			return false
		}
		return (from == "n1" && to == "n2") || (from == "n2" && to == "n1")
	})
	waitUntil(t, 5*time.Second, func() bool {
		return counter(t, c.Obs, "n1.detect.false_suspicions") >= 1
	}, "heartbeat loss on a live link yields a false suspicion")
	waitUntil(t, time.Second, func() bool { return !c.GMS.ViewOf(n1.ID).Contains("n2") },
		"false suspicion shrinks n1's view")
	if !c.GMS.Degraded(n1.ID) {
		t.Fatal("n1 not degraded under false suspicion")
	}

	c.Net.SetDrop(nil)
	waitUntil(t, 5*time.Second, func() bool {
		return c.GMS.ViewOf(n1.ID).Contains("n2") && !c.GMS.Degraded(n1.ID)
	}, "view heals once heartbeats flow again")
}

// TestDetectorAsymmetricPartitionViews checks per-node views under a real
// partition: each side converges on its own component, and healing restores
// the full view everywhere.
func TestDetectorAsymmetricPartitionViews(t *testing.T) {
	c := newDetectorCluster(t, 3, detect.Config{Interval: 5 * time.Millisecond, SuspectTimeout: 25 * time.Millisecond})
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	waitUntil(t, 5*time.Second, func() bool {
		v1 := c.GMS.ViewOf("n1")
		v3 := c.GMS.ViewOf("n3")
		return v1.Size() == 2 && v1.Contains("n2") && !v1.Contains("n3") &&
			v3.Size() == 1 && v3.Contains("n3")
	}, "views converge on the partition components")
	if w := c.GMS.PartitionWeight("n3"); w >= 0.5 {
		t.Fatalf("minority partition weight = %f, want < 0.5", w)
	}
	c.Heal()
	waitUntil(t, 5*time.Second, func() bool {
		return c.GMS.ViewOf("n1").Size() == 3 && c.GMS.ViewOf("n3").Size() == 3
	}, "healing restores full views on both sides")
}

// TestDetectorConcurrentReads hammers view and mode reads while the
// detectors churn through crash/recover cycles; run under -race this is the
// concurrency safety net for the heartbeat/view paths.
func TestDetectorConcurrentReads(t *testing.T) {
	c := newDetectorCluster(t, 3, detect.Config{Interval: time.Millisecond})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, n := range c.Nodes {
				_ = c.GMS.ViewOf(n.ID)
				_ = c.GMS.Degraded(n.ID)
				_ = c.GMS.PartitionWeight(n.ID)
				_ = n.Mode()
				_ = n.Detector.Suspects()
			}
		}
	}()
	for i := 0; i < 10; i++ {
		c.Net.Crash("n3")
		time.Sleep(2 * time.Millisecond)
		c.Net.Recover("n3")
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	<-done
}

// TestDetectorRequiresDetectorDrivenMembership: wiring a detector into an
// oracle-driven membership is a configuration error, not a silent conflict
// between two view authorities.
func TestDetectorRequiresDetectorDrivenMembership(t *testing.T) {
	net := transport.NewNetwork()
	if err := net.Join("n1"); err != nil {
		t.Fatal(err)
	}
	gms := group.NewMembership(net)
	_, err := New(Options{ID: "n1", Net: net, GMS: gms, Detect: &detect.Config{}})
	if err == nil {
		t.Fatal("node accepted a detector on oracle-driven membership")
	}
}
