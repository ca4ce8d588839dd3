package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dedisys/internal/obs"
)

func newThreeNodeNet(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	for _, id := range []NodeID{"n1", "n2", "n3"} {
		if err := n.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	return n
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

func TestJoinAndNodes(t *testing.T) {
	n := newThreeNodeNet(t)
	got := n.Nodes()
	if len(got) != 3 || got[0] != "n1" || got[2] != "n3" {
		t.Fatalf("Nodes = %v", got)
	}
	if err := n.Join("n1"); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestSendAndHandlers(t *testing.T) {
	n := newThreeNodeNet(t)
	if err := n.Handle("n2", "ping", func(from NodeID, payload any) (any, error) {
		return string(from) + ":" + payload.(string), nil
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Send(context.Background(), "n1", "n2", "ping", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "n1:hello" {
		t.Fatalf("resp = %v", resp)
	}
	if _, err := n.Send(context.Background(), "n1", "n2", "nope", nil); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("missing handler err = %v", err)
	}
	if _, err := n.Send(context.Background(), "n1", "ghost", "ping", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node err = %v", err)
	}
	if err := n.Handle("ghost", "ping", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Handle unknown err = %v", err)
	}
	if got := counter(t, n.Observer(), "transport.messages"); got != 1 {
		t.Fatalf("messages = %d", got)
	}
}

func TestPartitionBlocksTraffic(t *testing.T) {
	n := newThreeNodeNet(t)
	if err := n.Handle("n3", "ping", func(NodeID, any) (any, error) { return "pong", nil }); err != nil {
		t.Fatal(err)
	}
	n.Partition([]NodeID{"n1", "n2"}, []NodeID{"n3"})
	if n.Connected("n1", "n3") {
		t.Fatal("partitioned nodes connected")
	}
	if !n.Connected("n1", "n2") {
		t.Fatal("same-partition nodes disconnected")
	}
	if _, err := n.Send(context.Background(), "n1", "n3", "ping", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cross-partition send err = %v", err)
	}
	if got := counter(t, n.Observer(), "transport.failures"); got != 1 {
		t.Fatalf("failures = %d", got)
	}
	n.Heal()
	if !n.Connected("n1", "n3") {
		t.Fatal("heal did not reconnect")
	}
	if _, err := n.Send(context.Background(), "n1", "n3", "ping", nil); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
}

func TestPartitionUnmentionedNodesShareGroupZero(t *testing.T) {
	n := newThreeNodeNet(t)
	n.Partition([]NodeID{"n1"})
	if n.Connected("n1", "n2") {
		t.Fatal("n1 should be isolated")
	}
	if !n.Connected("n2", "n3") {
		t.Fatal("unmentioned nodes should stay together")
	}
}

func TestCrashRecover(t *testing.T) {
	n := newThreeNodeNet(t)
	n.Crash("n2")
	if n.Connected("n1", "n2") || n.Connected("n2", "n2") {
		t.Fatal("crashed node still connected")
	}
	got := n.ReachableFrom("n1")
	if len(got) != 2 || got[0] != "n1" || got[1] != "n3" {
		t.Fatalf("ReachableFrom = %v", got)
	}
	if got := n.ReachableFrom("n2"); len(got) != 0 {
		t.Fatalf("crashed node reach = %v", got)
	}
	n.Recover("n2")
	if !n.Connected("n1", "n2") {
		t.Fatal("recover did not reconnect")
	}
}

func TestSelfConnectivity(t *testing.T) {
	n := newThreeNodeNet(t)
	if !n.Connected("n1", "n1") {
		t.Fatal("node not connected to itself")
	}
	n.Partition([]NodeID{"n1"}, []NodeID{"n2", "n3"})
	if !n.Connected("n1", "n1") {
		t.Fatal("partitioned node not connected to itself")
	}
}

func TestWatchersAndEpoch(t *testing.T) {
	n := NewNetwork()
	var mu sync.Mutex
	calls := 0
	n.Watch(func(int64) {
		mu.Lock()
		calls++
		mu.Unlock()
	})
	e0 := n.Epoch()
	if err := n.Join("n1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Join("n2"); err != nil {
		t.Fatal(err)
	}
	n.Partition([]NodeID{"n1"})
	n.Heal()
	n.Crash("n1")
	n.Recover("n1")
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 6 {
		t.Fatalf("watcher calls = %d, want 6", got)
	}
	if n.Epoch() != e0+6 {
		t.Fatalf("epoch = %d, want %d", n.Epoch(), e0+6)
	}
}

func TestWatcherMayQueryNetwork(t *testing.T) {
	n := NewNetwork()
	var reach []NodeID
	n.Watch(func(int64) { reach = n.ReachableFrom("n1") })
	if err := n.Join("n1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Join("n2"); err != nil {
		t.Fatal(err)
	}
	if len(reach) != 2 {
		t.Fatalf("watcher saw reach = %v", reach)
	}
}

// TestWatcherEpochOrder drives overlapping topology changes from many
// goroutines and asserts that every watcher observes strictly increasing
// epochs: stale notifications must be suppressed, not delivered late.
func TestWatcherEpochOrder(t *testing.T) {
	n := NewNetwork()
	for _, id := range []NodeID{"n1", "n2", "n3", "n4"} {
		if err := n.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var seen []int64
	n.Watch(func(epoch int64) {
		mu.Lock()
		seen = append(seen, epoch)
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch w % 4 {
				case 0:
					n.Partition([]NodeID{"n1"}, []NodeID{"n2", "n3", "n4"})
				case 1:
					n.Heal()
				case 2:
					n.Crash("n3")
				default:
					n.Recover("n3")
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no notifications delivered")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("epochs out of order at %d: %d after %d", i, seen[i], seen[i-1])
		}
	}
}

func TestCostModelCharges(t *testing.T) {
	n := NewNetwork(WithCost(CostModel{PerMessage: 200 * time.Microsecond}))
	if err := n.Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Join("b"); err != nil {
		t.Fatal(err)
	}
	if err := n.Handle("b", "ping", func(NodeID, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const sends = 20
	for i := 0; i < sends; i++ {
		if _, err := n.Send(context.Background(), "a", "b", "ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < sends*150*time.Microsecond {
		t.Fatalf("cost model not charged: %v for %d sends", elapsed, sends)
	}
}

func TestSendCancelledContext(t *testing.T) {
	n := newThreeNodeNet(t)
	var delivered atomic.Int64
	if err := n.Handle("n2", "k", func(NodeID, any) (any, error) {
		delivered.Add(1)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := n.Send(ctx, "n1", "n2", "k", nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cancelled send err = %v, want ErrUnreachable", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled send err = %v, want context.Canceled in chain", err)
	}
	if delivered.Load() != 0 {
		t.Fatal("cancelled send was delivered")
	}
	if got := counter(t, n.Observer(), "transport.failures"); got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
}

func TestSendDeadlineExpiresDuringHop(t *testing.T) {
	n := NewNetwork(WithCost(CostModel{PerMessage: 30 * time.Millisecond}))
	for _, id := range []NodeID{"a", "b"} {
		if err := n.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	var delivered atomic.Int64
	if err := n.Handle("b", "k", func(NodeID, any) (any, error) {
		delivered.Add(1)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := n.Send(ctx, "a", "b", "k", nil)
	if !errors.Is(err, ErrUnreachable) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired send err = %v", err)
	}
	if delivered.Load() != 0 {
		t.Fatal("message delivered past its deadline")
	}
}

// TestStatsDifferenceCountsDropped: the counters only grow, so a reader
// measures an interval as a difference of two registry reads — every counter,
// the dropped one included, moves by exactly what happened in between.
func TestStatsDifferenceCountsDropped(t *testing.T) {
	n := newThreeNodeNet(t)
	if err := n.Handle("n2", "k", func(NodeID, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	n.SetDrop(func(from, to NodeID, kind string) bool { return true })
	if _, err := n.Send(context.Background(), "n1", "n2", "k", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dropped send err = %v", err)
	}
	before := n.Observer().Snapshot().Counters
	if before["transport.dropped"] != 1 {
		t.Fatalf("dropped = %d, want 1", before["transport.dropped"])
	}
	if _, err := n.Send(context.Background(), "n1", "n2", "k", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dropped send err = %v", err)
	}
	after := n.Observer().Snapshot().Counters
	for name, want := range map[string]int64{"transport.dropped": 1, "transport.failures": 1, "transport.messages": 0} {
		if _, ok := after[name]; !ok {
			t.Fatalf("no counter %q registered", name)
		}
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %d over one more dropped send, want %d", name, got, want)
		}
	}
}

func TestStatsDifference(t *testing.T) {
	n := newThreeNodeNet(t)
	if err := n.Handle("n2", "k", func(NodeID, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(context.Background(), "n1", "n2", "k", nil); err != nil {
		t.Fatal(err)
	}
	o := n.Observer()
	msgs, failures := counter(t, o, "transport.messages"), counter(t, o, "transport.failures")
	if _, err := n.Send(context.Background(), "n1", "n2", "k", nil); err != nil {
		t.Fatal(err)
	}
	if m, f := counter(t, o, "transport.messages"), counter(t, o, "transport.failures"); m-msgs != 1 || f != failures {
		t.Fatalf("messages %d -> %d, failures %d -> %d after one more send", msgs, m, failures, f)
	}
}

func TestConcurrentSends(t *testing.T) {
	n := newThreeNodeNet(t)
	if err := n.Handle("n2", "k", func(NodeID, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, _ = n.Send(context.Background(), "n1", "n2", "k", i)
			}
		}()
	}
	// Concurrent topology churn must not race with sends.
	for i := 0; i < 20; i++ {
		n.Partition([]NodeID{"n1"}, []NodeID{"n2", "n3"})
		n.Heal()
	}
	wg.Wait()
}

func TestReachableMatchesReachableFrom(t *testing.T) {
	n := newThreeNodeNet(t)
	n.Partition([]NodeID{"n1", "n2"}, []NodeID{"n3"})
	n.Crash("n2")
	for _, from := range n.Nodes() {
		in := make(map[NodeID]bool)
		for _, id := range n.ReachableFrom(from) {
			in[id] = true
		}
		for _, to := range n.Nodes() {
			if got := n.Reachable(from, to); got != in[to] {
				t.Fatalf("Reachable(%s,%s) = %t, ReachableFrom says %t", from, to, got, in[to])
			}
		}
	}
}

// The failure detector asks about one peer per heartbeat; Reachable avoids
// materialising the full reachable set the way ReachableFrom does.
func BenchmarkReachable(b *testing.B) {
	n := newBenchNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Reachable("n1", "n16")
	}
}

func BenchmarkReachableFromSingle(b *testing.B) {
	n := newBenchNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range n.ReachableFrom("n1") {
			if id == "n16" {
				break
			}
		}
	}
}

func newBenchNet(b *testing.B) *Network {
	b.Helper()
	n := NewNetwork()
	for i := 1; i <= 16; i++ {
		if err := n.Join(NodeID(fmt.Sprintf("n%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	return n
}

// TestLatencyFuncChargesPerLink injects asymmetric per-link latency and
// asserts only the configured link pays it.
func TestLatencyFuncChargesPerLink(t *testing.T) {
	n := newThreeNodeNet(t)
	for _, id := range []NodeID{"n2", "n3"} {
		if err := n.Handle(id, "ping", func(NodeID, any) (any, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	n.SetLatency(func(from, to NodeID, kind string) time.Duration {
		if to == "n2" {
			return 5 * time.Millisecond
		}
		return 0
	})
	start := time.Now()
	if _, err := n.Send(context.Background(), "n1", "n3", "ping", nil); err != nil {
		t.Fatal(err)
	}
	fast := time.Since(start)
	start = time.Now()
	if _, err := n.Send(context.Background(), "n1", "n2", "ping", nil); err != nil {
		t.Fatal(err)
	}
	slow := time.Since(start)
	if slow < 4*time.Millisecond {
		t.Fatalf("latency not charged on slow link: %v", slow)
	}
	if fast > 2*time.Millisecond {
		t.Fatalf("latency leaked onto unconfigured link: %v", fast)
	}
	// Clearing the injector restores the base cost model.
	n.SetLatency(nil)
	start = time.Now()
	if _, err := n.Send(context.Background(), "n1", "n2", "ping", nil); err != nil {
		t.Fatal(err)
	}
	if cleared := time.Since(start); cleared > 2*time.Millisecond {
		t.Fatalf("latency still charged after SetLatency(nil): %v", cleared)
	}
}

// TestLatencyChargeAbortsOnCancel cancels a send stuck paying injected
// latency and asserts it aborts without delivering.
func TestLatencyChargeAbortsOnCancel(t *testing.T) {
	n := newThreeNodeNet(t)
	var delivered atomic.Int64
	if err := n.Handle("n2", "ping", func(NodeID, any) (any, error) {
		delivered.Add(1)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	n.SetLatency(func(NodeID, NodeID, string) time.Duration { return time.Minute })
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := n.Send(ctx, "n1", "n2", "ping", nil)
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrUnreachable) {
			t.Fatalf("err = %v, want unreachable+canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send did not abort when its latency charge was cancelled")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("send blocked for the full injected latency: %v", elapsed)
	}
	if delivered.Load() != 0 {
		t.Fatal("cancelled send was still delivered")
	}
}
