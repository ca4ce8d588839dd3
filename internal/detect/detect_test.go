package detect

import (
	"sync"
	"testing"
	"time"

	"dedisys/internal/obs"
	"dedisys/internal/transport"
)

func newDetectorNet(t *testing.T, size int) (*transport.Network, []transport.NodeID) {
	t.Helper()
	net := transport.NewNetwork()
	ids := make([]transport.NodeID, size)
	for i := range ids {
		ids[i] = transport.NodeID([]string{"n1", "n2", "n3", "n4"}[i])
		if err := net.Join(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return net, ids
}

func startDetectors(t *testing.T, net *transport.Network, ids []transport.NodeID, cfg Config) []*Detector {
	t.Helper()
	ds := make([]*Detector, len(ids))
	for i, id := range ids {
		d, err := New(net, id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	for _, d := range ds {
		d.Start()
	}
	t.Cleanup(func() {
		for _, d := range ds {
			d.Stop()
		}
	})
	return ds
}

// counter reads a counter of o's registry; a name nothing registered fails
// the test instead of reading 0.
func counter(t *testing.T, o *obs.Observer, name string) int64 {
	t.Helper()
	v, ok := o.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q registered", name)
	}
	return v
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %s: %s", timeout, msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func contains(ids []transport.NodeID, id transport.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func TestInitialViewSeedsAllPeers(t *testing.T) {
	net, ids := newDetectorNet(t, 3)
	ds := startDetectors(t, net, ids, Config{Interval: 2 * time.Millisecond})
	_, view := ds[0].Current()
	if len(view) != 3 {
		t.Fatalf("initial view = %v, want all 3 nodes", view)
	}
}

func TestCrashSuspicionAndRejoin(t *testing.T) {
	net, ids := newDetectorNet(t, 3)
	ds := startDetectors(t, net, ids, Config{Interval: 2 * time.Millisecond})
	// The detectors inherit the network's observer and count into it.
	o := net.Observer()

	// Let a few heartbeat rounds establish freshness.
	waitFor(t, 2*time.Second, func() bool { return counter(t, o, "detect.heartbeats_sent") >= 4 }, "heartbeats flowing")

	net.Crash("n3")
	start := time.Now()
	waitFor(t, 5*time.Second, func() bool {
		_, v := ds[0].Current()
		return !contains(v, "n3")
	}, "n1 suspects crashed n3")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("detection took %s, want well under 1s at 2ms interval", elapsed)
	}
	if got := counter(t, o, "detect.suspicions"); got < 1 {
		t.Fatalf("suspicions = %d, want >= 1", got)
	}
	if got := counter(t, o, "detect.false_suspicions"); got != 0 {
		t.Fatalf("false suspicions = %d for a real crash", got)
	}
	if h := o.Snapshot().Histograms["detect.detection_latency"]; h.Count < 1 || h.Mean < 2*time.Millisecond {
		t.Fatalf("detection latency = %s over %d samples, want >= one interval", h.Mean, h.Count)
	}

	net.Recover("n3")
	waitFor(t, 5*time.Second, func() bool {
		_, v := ds[0].Current()
		return contains(v, "n3")
	}, "n1 re-admits recovered n3")
	if h := o.Snapshot().Histograms["detect.rejoin_latency"]; h.Count < 1 || h.Mean <= 0 {
		t.Fatalf("rejoin latency = %s over %d samples, want a positive sample", h.Mean, h.Count)
	}
}

func TestLossyLinkCausesFalseSuspicion(t *testing.T) {
	net, ids := newDetectorNet(t, 3)
	// Drop every heartbeat between n1 and n2, both directions. The nodes stay
	// reachable per the topology, so resulting suspicions are false.
	net.SetDrop(func(from, to transport.NodeID, kind string) bool {
		if kind != MsgHeartbeat {
			return false
		}
		return (from == "n1" && to == "n2") || (from == "n2" && to == "n1")
	})
	ds := startDetectors(t, net, ids, Config{Interval: 2 * time.Millisecond})

	// Wait on the view, not on the node-wide counter: on a busy box a late n3
	// heartbeat can trip the counter before n2's silence runs out.
	waitFor(t, 5*time.Second, func() bool {
		_, v := ds[0].Current()
		return !contains(v, "n2") && contains(v, "n3")
	}, "n1 drops n2 under full heartbeat loss and keeps n3, whose heartbeats were not dropped")
	if got := counter(t, net.Observer(), "detect.false_suspicions"); got < 1 {
		t.Fatalf("false suspicions = %d, want n2's counted: the topology still reaches it", got)
	}

	// The link recovers: the false suspicion must heal into a re-admission.
	net.SetDrop(nil)
	waitFor(t, 5*time.Second, func() bool {
		_, v := ds[0].Current()
		return contains(v, "n2")
	}, "n1 re-admits n2 once heartbeats resume")
}

func TestAsymmetricViewsUnderPartialLoss(t *testing.T) {
	net, ids := newDetectorNet(t, 3)
	// Only n1 loses n3's heartbeats (and its own to n3): n2 keeps perfect
	// connectivity, so n1 and n2 legitimately disagree about the membership.
	net.SetDrop(func(from, to transport.NodeID, kind string) bool {
		if kind != MsgHeartbeat {
			return false
		}
		return (from == "n1" && to == "n3") || (from == "n3" && to == "n1")
	})
	ds := startDetectors(t, net, ids, Config{Interval: 2 * time.Millisecond})

	waitFor(t, 5*time.Second, func() bool {
		_, v1 := ds[0].Current()
		return !contains(v1, "n3")
	}, "n1 drops n3 from its view")
	_, v2 := ds[1].Current()
	if !contains(v2, "n3") {
		t.Fatalf("n2's view %v lost n3 although their link is clean", v2)
	}
}

func TestPiggybackedDiscovery(t *testing.T) {
	net, ids := newDetectorNet(t, 3)
	ds := make([]*Detector, len(ids))
	for i, id := range ids {
		d, err := New(net, id, Config{Interval: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	t.Cleanup(func() {
		for _, d := range ds {
			d.Stop()
		}
	})
	// n4 joins after the detectors were built: none of them seeded it, so it
	// can only be discovered through piggybacked Known lists once its own
	// heartbeats reach somebody.
	if err := net.Join("n4"); err != nil {
		t.Fatal(err)
	}
	late, err := New(net, "n4", Config{Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(late.Stop)
	for _, d := range ds {
		d.Start()
	}
	late.Start()

	waitFor(t, 5*time.Second, func() bool {
		for _, d := range ds {
			_, v := d.Current()
			if !contains(v, "n4") {
				return false
			}
		}
		return true
	}, "all detectors discover the late joiner n4")
}

func TestOnChangeEpochsMonotone(t *testing.T) {
	net, ids := newDetectorNet(t, 3)
	d, err := New(net, ids[0], Config{Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	var mu sync.Mutex
	var epochs []int64
	d.OnChange(func(epoch int64, members []transport.NodeID) {
		mu.Lock()
		epochs = append(epochs, epoch)
		mu.Unlock()
	})
	d.Start()
	for i, id := range ids[1:] {
		dd, err := New(net, id, Config{Interval: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dd.Stop)
		dd.Start()
		_ = i
	}
	net.Crash("n3")
	waitFor(t, 5*time.Second, func() bool {
		_, v := d.Current()
		return !contains(v, "n3")
	}, "suspicion notification")
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("epochs not strictly increasing: %v", epochs)
		}
	}
}

func TestFixedTimeoutMonitor(t *testing.T) {
	m := FixedTimeout{}.Monitor(10 * time.Millisecond)
	base := time.Now()
	if m.Suspect(base) {
		t.Fatal("suspected before any observation")
	}
	m.Observe(base)
	if m.Suspect(base.Add(49 * time.Millisecond)) {
		t.Fatal("suspected within the 5-interval default timeout")
	}
	if !m.Suspect(base.Add(51 * time.Millisecond)) {
		t.Fatal("not suspected past the timeout")
	}
	m.Observe(base.Add(60 * time.Millisecond))
	if m.Suspect(base.Add(70 * time.Millisecond)) {
		t.Fatal("still suspected after a fresh observation")
	}
}

func TestPhiAccrualMonitor(t *testing.T) {
	m := PhiAccrual{}.Monitor(10 * time.Millisecond).(*phiMonitor)
	base := time.Now()
	// Regular arrivals every 10ms.
	for i := 0; i < 20; i++ {
		m.Observe(base.Add(time.Duration(i) * 10 * time.Millisecond))
	}
	last := base.Add(19 * 10 * time.Millisecond)
	if m.Suspect(last.Add(12 * time.Millisecond)) {
		t.Fatalf("suspected after a normal gap, phi=%f", m.Phi(last.Add(12*time.Millisecond)))
	}
	if !m.Suspect(last.Add(500 * time.Millisecond)) {
		t.Fatalf("not suspected after 50 missed intervals, phi=%f", m.Phi(last.Add(500*time.Millisecond)))
	}
	// Phi grows with silence.
	p1 := m.Phi(last.Add(100 * time.Millisecond))
	p2 := m.Phi(last.Add(200 * time.Millisecond))
	if p2 <= p1 {
		t.Fatalf("phi not increasing with silence: %f then %f", p1, p2)
	}
}

func TestPhiAccrualFallbackBeforeHistory(t *testing.T) {
	m := PhiAccrual{}.Monitor(10 * time.Millisecond)
	base := time.Now()
	m.Observe(base) // a single observation: no interarrival samples yet
	if m.Suspect(base.Add(40 * time.Millisecond)) {
		t.Fatal("suspected within the fallback tolerance without history")
	}
	if !m.Suspect(base.Add(60 * time.Millisecond)) {
		t.Fatal("not suspected past the 5-interval fallback")
	}
}

func TestStopTerminatesHeartbeats(t *testing.T) {
	net, ids := newDetectorNet(t, 2)
	ds := startDetectors(t, net, ids, Config{Interval: time.Millisecond})
	o := net.Observer()
	waitFor(t, 2*time.Second, func() bool { return counter(t, o, "detect.heartbeats_sent") >= 2 }, "heartbeats flowing")
	// Both detectors share the network's observer and thus one counter; stop
	// both before asserting it stays put.
	for _, d := range ds {
		d.Stop()
	}
	sent := counter(t, o, "detect.heartbeats_sent")
	time.Sleep(20 * time.Millisecond)
	if after := counter(t, o, "detect.heartbeats_sent"); after != sent {
		t.Fatalf("heartbeats kept flowing after Stop: %d -> %d", sent, after)
	}
	ds[0].Stop() // idempotent
}

func TestConcurrentViewReads(t *testing.T) {
	net, ids := newDetectorNet(t, 3)
	ds := startDetectors(t, net, ids, Config{Interval: time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, d := range ds {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.Current()
				d.Suspects()
				net.Observer().Snapshot()
			}
		}()
	}
	for i := 0; i < 10; i++ {
		net.Crash("n3")
		time.Sleep(2 * time.Millisecond)
		net.Recover("n3")
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestStopReturnsPromptlyMidRound pins the shutdown contract: Stop must not
// block behind an in-flight heartbeat send to a hung peer. The peer's
// heartbeat handler parks on a channel, so without the detector-lifetime
// context and the round-abandon path in tick, Stop would wait forever.
func TestStopReturnsPromptlyMidRound(t *testing.T) {
	net, ids := newDetectorNet(t, 2)
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	defer close(release)
	if err := net.Handle(ids[1], MsgHeartbeat, func(transport.NodeID, any) (any, error) {
		entered <- struct{}{}
		<-release
		return "ack", nil
	}); err != nil {
		t.Fatal(err)
	}
	d, err := New(net, ids[0], Config{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()

	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeat round never reached the hung peer")
	}

	stopped := make(chan struct{})
	go func() {
		d.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop blocked behind an in-flight heartbeat send")
	}
}
