package group

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dedisys/internal/transport"
)

func threeNodes(t *testing.T) (*transport.Network, *Membership) {
	t.Helper()
	net := transport.NewNetwork()
	for _, id := range []transport.NodeID{"n1", "n2", "n3"} {
		if err := net.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	return net, NewMembership(net)
}

func TestInitialViews(t *testing.T) {
	_, gms := threeNodes(t)
	v := gms.ViewOf("n1")
	if v.Size() != 3 || !v.Contains("n3") {
		t.Fatalf("initial view = %v", v)
	}
	if gms.Degraded("n1") {
		t.Fatal("healthy system reported degraded")
	}
}

func TestViewsAfterPartition(t *testing.T) {
	net, gms := threeNodes(t)
	net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	if v := gms.ViewOf("n1"); v.Size() != 2 || v.Contains("n3") {
		t.Fatalf("n1 view = %v", v)
	}
	if v := gms.ViewOf("n3"); v.Size() != 1 {
		t.Fatalf("n3 view = %v", v)
	}
	if !gms.Degraded("n1") || !gms.Degraded("n3") {
		t.Fatal("partitioned system not degraded")
	}
	net.Heal()
	if gms.Degraded("n1") {
		t.Fatal("healed system still degraded")
	}
	if v := gms.ViewOf("n3"); v.Size() != 3 {
		t.Fatalf("n3 healed view = %v", v)
	}
}

func TestViewChangeListeners(t *testing.T) {
	net, gms := threeNodes(t)
	var events []View
	gms.OnViewChange("n1", func(old, nw View) {
		events = append(events, nw)
	})
	net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2", "n3"})
	net.Heal()
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Size() != 1 || events[1].Size() != 3 {
		t.Fatalf("event sizes = %d, %d", events[0].Size(), events[1].Size())
	}
	// Re-partitioning identically must not fire again (views unchanged).
	before := len(events)
	net.Heal()
	if len(events) != before {
		t.Fatal("no-op topology change fired a listener")
	}
}

func TestPartitionWeightDefaults(t *testing.T) {
	net, gms := threeNodes(t)
	if w := gms.PartitionWeight("n1"); math.Abs(w-1) > 1e-9 {
		t.Fatalf("healthy weight = %f", w)
	}
	net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	if w := gms.PartitionWeight("n1"); math.Abs(w-2.0/3.0) > 1e-9 {
		t.Fatalf("n1 weight = %f", w)
	}
	if w := gms.PartitionWeight("n3"); math.Abs(w-1.0/3.0) > 1e-9 {
		t.Fatalf("n3 weight = %f", w)
	}
}

func TestPartitionWeightCustom(t *testing.T) {
	net, gms := threeNodes(t)
	gms.SetWeight("n1", 5)
	gms.SetWeight("n2", 3)
	gms.SetWeight("n3", 2)
	net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2", "n3"})
	if w := gms.PartitionWeight("n1"); math.Abs(w-0.5) > 1e-9 {
		t.Fatalf("n1 weight = %f", w)
	}
	if w := gms.PartitionWeight("n2"); math.Abs(w-0.5) > 1e-9 {
		t.Fatalf("n2 weight = %f", w)
	}
}

func TestFilteredView(t *testing.T) {
	net, gms := threeNodes(t)
	grp := []transport.NodeID{"n1", "n3"}
	if v := gms.FilteredView("n1", grp); v.Size() != 2 || v.Contains("n2") {
		t.Fatalf("healthy filtered view = %v", v)
	}
	net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	v := gms.FilteredView("n1", grp)
	if v.Size() != 1 || !v.Contains("n1") {
		t.Fatalf("split filtered view = %v", v)
	}
	if full := gms.ViewOf("n1"); v.Epoch != full.Epoch {
		t.Fatalf("filtered epoch %d != view epoch %d", v.Epoch, full.Epoch)
	}
}

func TestDegradedWithin(t *testing.T) {
	net, gms := threeNodes(t)
	grp := []transport.NodeID{"n1", "n2"}
	if gms.DegradedWithin("n1", grp) {
		t.Fatal("healthy group reported degraded")
	}
	// A split that keeps the whole group together degrades the system but
	// not the group.
	net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	if !gms.Degraded("n1") {
		t.Fatal("system not degraded")
	}
	if gms.DegradedWithin("n1", grp) {
		t.Fatal("intact group reported degraded")
	}
	if !gms.DegradedWithin("n3", []transport.NodeID{"n2", "n3"}) {
		t.Fatal("split group not degraded")
	}
	// Never-joined members do not count as failures.
	net.Heal()
	if gms.DegradedWithin("n1", []transport.NodeID{"n1", "n9"}) {
		t.Fatal("unjoined member counted as a failure")
	}
}

func TestPartitionWeightWithin(t *testing.T) {
	net, gms := threeNodes(t)
	grp := []transport.NodeID{"n1", "n2", "n3"}
	if w := gms.PartitionWeightWithin("n1", grp); math.Abs(w-1) > 1e-9 {
		t.Fatalf("healthy group weight = %f", w)
	}
	net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	// Within the pair group the split is invisible: full weight.
	if w := gms.PartitionWeightWithin("n1", []transport.NodeID{"n1", "n2"}); math.Abs(w-1) > 1e-9 {
		t.Fatalf("intact group weight = %f", w)
	}
	if w := gms.PartitionWeightWithin("n1", grp); math.Abs(w-2.0/3.0) > 1e-9 {
		t.Fatalf("split group weight = %f", w)
	}
	gms.SetWeight("n3", 2)
	if w := gms.PartitionWeightWithin("n3", []transport.NodeID{"n2", "n3"}); math.Abs(w-2.0/3.0) > 1e-9 {
		t.Fatalf("weighted group weight = %f", w)
	}
	// Only unjoined members: trivially whole.
	if w := gms.PartitionWeightWithin("n1", []transport.NodeID{"n8", "n9"}); w != 1 {
		t.Fatalf("unpopulated group weight = %f", w)
	}
}

func TestViewEqual(t *testing.T) {
	a := View{Members: []transport.NodeID{"a", "b"}}
	b := View{Members: []transport.NodeID{"a", "b"}}
	c := View{Members: []transport.NodeID{"a", "c"}}
	d := View{Members: []transport.NodeID{"a"}}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal wrong")
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

func TestMulticastCollectsResults(t *testing.T) {
	net, _ := threeNodes(t)
	for _, id := range []transport.NodeID{"n2", "n3"} {
		id := id
		if err := net.Handle(id, "update", func(from transport.NodeID, payload any) (any, error) {
			return string(id) + "-ack", nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	comm := NewComm(net)
	results := comm.Multicast(context.Background(), "n1", []transport.NodeID{"n1", "n2", "n3"}, "update", "state")
	if len(results) != 2 {
		t.Fatalf("results = %d (sender must be excluded)", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("result err for %s: %v", r.Node, r.Err)
		}
		if r.Response != string(r.Node)+"-ack" {
			t.Fatalf("response = %v", r.Response)
		}
	}
}

func TestMulticastPartialFailure(t *testing.T) {
	net, _ := threeNodes(t)
	if err := net.Handle("n2", "update", func(transport.NodeID, any) (any, error) { return "ok", nil }); err != nil {
		t.Fatal(err)
	}
	net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	comm := NewComm(net)
	results := comm.Multicast(context.Background(), "n1", []transport.NodeID{"n2", "n3"}, "update", nil)
	var okCount, errCount int
	for _, r := range results {
		if r.Err != nil {
			errCount++
		} else {
			okCount++
		}
	}
	if okCount != 1 || errCount != 1 {
		t.Fatalf("ok=%d err=%d", okCount, errCount)
	}
	if _, err := comm.Send(context.Background(), "n1", "n2", "update", nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// TestMulticastDeterministicOrder sends to destinations whose handlers
// complete in reverse order and asserts that the results still come back in
// destination order.
func TestMulticastDeterministicOrder(t *testing.T) {
	net := transport.NewNetwork()
	var dests []transport.NodeID
	if err := net.Join("src"); err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		id := transport.NodeID(fmt.Sprintf("d%d", i))
		dests = append(dests, id)
		if err := net.Join(id); err != nil {
			t.Fatal(err)
		}
		delay := time.Duration(n-i) * 5 * time.Millisecond // earlier slots answer last
		if err := net.Handle(id, "k", func(transport.NodeID, any) (any, error) {
			time.Sleep(delay)
			return id, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	comm := NewComm(net)
	results := comm.Multicast(context.Background(), "src", dests, "k", nil)
	if len(results) != n {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d err: %v", i, r.Err)
		}
		if r.Node != dests[i] || r.Response != dests[i] {
			t.Fatalf("result %d = %+v, want node %s", i, r, dests[i])
		}
	}
}

// ackingPeers builds a network charging hop per message with a sender "src"
// and n destinations that ack kind "k", and a Comm over it.
func ackingPeers(tb testing.TB, n int, hop time.Duration) (*Comm, []transport.NodeID) {
	tb.Helper()
	net := transport.NewNetwork(transport.WithCost(transport.CostModel{PerMessage: hop}))
	if err := net.Join("src"); err != nil {
		tb.Fatal(err)
	}
	var dests []transport.NodeID
	for i := 0; i < n; i++ {
		id := transport.NodeID(fmt.Sprintf("d%d", i))
		dests = append(dests, id)
		if err := net.Join(id); err != nil {
			tb.Fatal(err)
		}
		if err := net.Handle(id, "k", func(transport.NodeID, any) (any, error) { return "ack", nil }); err != nil {
			tb.Fatal(err)
		}
	}
	return NewComm(net), dests
}

// TestMulticastParallelLatency checks the tentpole property: fanning out to
// N destinations with a per-hop cost completes in ~1 hop of charged simtime,
// not N sequential hops.
func TestMulticastParallelLatency(t *testing.T) {
	const hop = 20 * time.Millisecond
	const n = 4
	comm, dests := ackingPeers(t, n, hop)
	start := time.Now()
	results := comm.Multicast(context.Background(), "src", dests, "k", nil)
	elapsed := time.Since(start)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("result err: %v", r.Err)
		}
	}
	if elapsed >= time.Duration(n)*hop {
		t.Fatalf("fan-out took %v, sequential would be %v — not parallel", elapsed, time.Duration(n)*hop)
	}
	if elapsed > 3*hop {
		t.Fatalf("fan-out took %v, want ~1 hop (%v)", elapsed, hop)
	}
}

// TestMulticastOneHopOnOneCore: modelled network latency must not depend on
// the host's core count. On a single core a round to four destinations at
// 20 ms per message still costs about one hop — every destination has its own
// sender — where a fan-out as wide as GOMAXPROCS took four.
//
// (TestMulticastCancelAbortsFanOut, which stood here, pinned the sequential
// order of a one-worker pool; what survives of it without the pool — a context
// dead before the round aborts every destination without a send — is
// TestMulticastEachCancelledContextTable's.)
func TestMulticastOneHopOnOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const hop = 20 * time.Millisecond
	const n = 4
	comm, dests := ackingPeers(t, n, hop)
	start := time.Now()
	results := comm.Multicast(context.Background(), "src", dests, "k", nil)
	elapsed := time.Since(start)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("result err: %v", r.Err)
		}
	}
	if elapsed >= 3*hop {
		t.Fatalf("a round to %d destinations on one core took %v, want ~1 hop (%v)", n, elapsed, hop)
	}
}

// TestMulticastConcurrencySafe hammers one multicast group from several
// goroutines under -race.
func TestMulticastConcurrencySafe(t *testing.T) {
	net, _ := threeNodes(t)
	for _, id := range []transport.NodeID{"n2", "n3"} {
		if err := net.Handle(id, "k", func(transport.NodeID, any) (any, error) { return "ack", nil }); err != nil {
			t.Fatal(err)
		}
	}
	comm := NewComm(net)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				results := comm.Multicast(context.Background(), "n1", []transport.NodeID{"n2", "n3"}, "k", nil)
				if len(results) != 2 {
					t.Error("short result set")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkMulticastFanOut measures the wall-clock (= charged simtime) of a
// multicast to 8 replicas under a calibrated per-hop cost: ~1 hop per op.
func BenchmarkMulticastFanOut(b *testing.B) {
	const hop = 2 * time.Millisecond
	comm, dests := ackingPeers(b, 8, hop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range comm.Multicast(context.Background(), "src", dests, "k", nil) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func TestLateJoinGetsView(t *testing.T) {
	net, gms := threeNodes(t)
	if err := net.Join("n4"); err != nil {
		t.Fatal(err)
	}
	if v := gms.ViewOf("n4"); v.Size() != 4 {
		t.Fatalf("late joiner view = %v", v)
	}
	if v := gms.ViewOf("n1"); v.Size() != 4 {
		t.Fatalf("existing node view after join = %v", v)
	}
}

// recorder is a test's round and its owner in one value, as the engine's
// callers build theirs: it ships a payload per destination, keeps every
// result, and rules like a plain count of acks — need < 0 never rules, which
// is a round that waits for everybody.
type recorder struct {
	Round
	payloadFor func(transport.NodeID) any
	need       int
	acked      int // under Round.mu, as Answered runs
	results    []Result
	drains     atomic.Int32
	drained    chan struct{} // closed by the first Drained
}

func newRecorder(from transport.NodeID, to []transport.NodeID, kind string, need int, payloadFor func(transport.NodeID) any) *recorder {
	rec := &recorder{payloadFor: payloadFor, need: need, results: make([]Result, len(to)), drained: make(chan struct{})}
	rec.From, rec.To, rec.Kind = from, to, kind
	switch {
	case need == 0:
		rec.Until = AtOnce
	case need > 0:
		rec.Until = OnVerdict
	}
	return rec
}

func (rec *recorder) Payload(i int) any { return rec.payloadFor(rec.To[i]) }

func (rec *recorder) Answered(i int, reply any, err error) Verdict {
	rec.results[i] = Result{Node: rec.To[i], Response: reply, Err: err}
	if err == nil {
		rec.acked++
	}
	switch inFlight := len(rec.To) - int(rec.answered) - 1; {
	case rec.need < 0:
		return Open
	case rec.acked >= rec.need:
		return Satisfied
	case rec.acked+inFlight < rec.need:
		return Hopeless
	}
	return Open
}

func (rec *recorder) Drained() {
	if rec.drains.Add(1) == 1 {
		close(rec.drained)
	}
}

// TestMulticastEachPerDestinationPayload checks that each destination
// receives exactly the payload built for it, in deterministic result order,
// for both the single destination a waiting caller sends to itself and the
// fan-out. (MulticastEach is gone; the engine's Payload hook is what ships a
// payload per destination.)
func TestMulticastEachPerDestinationPayload(t *testing.T) {
	net := transport.NewNetwork()
	var dests []transport.NodeID
	if err := net.Join("src"); err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		id := transport.NodeID(fmt.Sprintf("d%d", i))
		dests = append(dests, id)
		if err := net.Join(id); err != nil {
			t.Fatal(err)
		}
		if err := net.Handle(id, "k", func(from transport.NodeID, payload any) (any, error) {
			return payload, nil // echo what arrived
		}); err != nil {
			t.Fatal(err)
		}
	}
	comm := NewComm(net)
	for _, width := range []int{1, n} {
		rec := newRecorder("src", dests[:width], "k", -1, func(dst transport.NodeID) any {
			return "payload-for-" + string(dst)
		})
		if err := comm.Run(context.Background(), &rec.Round, rec); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, r := range rec.results {
			if r.Err != nil {
				t.Fatalf("width %d result %d err: %v", width, i, r.Err)
			}
			if r.Node != dests[i] {
				t.Fatalf("width %d result %d node = %s, want %s", width, i, r.Node, dests[i])
			}
			if want := "payload-for-" + string(dests[i]); r.Response != want {
				t.Fatalf("width %d result %d payload = %v, want %s", width, i, r.Response, want)
			}
		}
	}
}

// TestMulticastEachExcludesSender mirrors the Multicast self-exclusion rule
// on the adapter that takes a payload function.
func TestMulticastEachExcludesSender(t *testing.T) {
	net, _ := threeNodes(t)
	if err := net.Handle("n2", "k", func(transport.NodeID, any) (any, error) { return "ok", nil }); err != nil {
		t.Fatal(err)
	}
	comm := NewComm(net)
	results := comm.MulticastThreshold(context.Background(), "n1", []transport.NodeID{"n1", "n2"}, "k", func(dst transport.NodeID) any {
		if dst == "n1" {
			t.Error("payloadFor called for the sender")
		}
		return nil
	}, 1).Wait()
	if len(results) != 1 || results[0].Node != "n2" || results[0].Err != nil {
		t.Fatalf("results = %+v", results)
	}
}

// TestMulticastEachCancelledContextTable: a context that is dead before the
// call starts must abort every destination without attempting a send,
// identically at N=0, N=1 (sent to on the caller's goroutine) and N=2 (the
// fan-out). It keeps the name it had when Multicast sat on MulticastEach.
func TestMulticastEachCancelledContextTable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dests []transport.NodeID
	}{
		{"zero", nil},
		{"one", []transport.NodeID{"n2"}},
		{"two", []transport.NodeID{"n2", "n3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, _ := threeNodes(t)
			var handled atomic.Int64
			for _, id := range []transport.NodeID{"n2", "n3"} {
				if err := net.Handle(id, "update", func(transport.NodeID, any) (any, error) {
					handled.Add(1)
					return "ack", nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			comm := NewComm(net)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			results := comm.Multicast(ctx, "n1", tc.dests, "update", "state")
			if len(results) != len(tc.dests) {
				t.Fatalf("results = %d, want %d", len(results), len(tc.dests))
			}
			for _, r := range results {
				if !errors.Is(r.Err, context.Canceled) {
					t.Fatalf("result for %s: err = %v, want context.Canceled", r.Node, r.Err)
				}
				if r.Response != nil {
					t.Fatalf("result for %s carries a response despite dead context", r.Node)
				}
			}
			if n := handled.Load(); n != 0 {
				t.Fatalf("%d sends reached handlers under a dead context", n)
			}
		})
	}
}

// answerCounter is a round that ships one payload to everybody, rules every
// answer alike and counts the Answered calls its owner receives.
type answerCounter struct {
	Round
	payload any
	answers atomic.Int32
	ruling  Verdict
}

func (a *answerCounter) Payload(int) any { return a.payload }

func (a *answerCounter) Answered(int, any, error) Verdict {
	a.answers.Add(1)
	return a.ruling
}

func (a *answerCounter) Drained() {}

// TestLateWakeNeverReachesAnotherRound races a round's wake-up against its
// dead context, then runs a round on the same Comm that must wait for both of
// its destinations. The first is an OnVerdict round to one peer whose handler
// cancels the round's context and then acks, so the sender's wake-up and the
// caller's exit on the dead context race; the second is an OnDrain round to
// two peers that answer after ~200 µs. A wake-up channel recycled while its
// sender could still send — the caller left on the dead context after the
// sender released it — would carry that late wake-up into the second round,
// which would return before its answers: the caller may put the channel back
// only when it received the wake-up or released the round itself.
func TestLateWakeNeverReachesAnotherRound(t *testing.T) {
	net := fourNodes(t)
	if err := net.Handle("n2", "cancel", func(_ transport.NodeID, payload any) (any, error) {
		payload.(context.CancelFunc)()
		return "ack", nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []transport.NodeID{"n3", "n4"} {
		if err := net.Handle(id, "slow", func(transport.NodeID, any) (any, error) {
			time.Sleep(200 * time.Microsecond)
			return "ack", nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	comm := NewComm(net)
	for i := 0; i < 2000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		raced := &answerCounter{payload: cancel, ruling: Satisfied}
		raced.From, raced.To, raced.Kind, raced.Until = "n1", []transport.NodeID{"n2"}, "cancel", OnVerdict
		_ = comm.Run(ctx, &raced.Round, raced) // satisfied or aborted: either is the race's
		cancel()

		drain := &answerCounter{ruling: Open}
		drain.From, drain.To, drain.Kind, drain.Until = "n1", []transport.NodeID{"n3", "n4"}, "slow", OnDrain
		if err := comm.Run(context.Background(), &drain.Round, drain); err != nil {
			t.Fatal(err)
		}
		if got := drain.answers.Load(); got != 2 {
			drain.Wait()
			t.Fatalf("iteration %d: an OnDrain round returned after %d of 2 answers", i, got)
		}
		raced.Wait()
	}
}

func fourNodes(t *testing.T) *transport.Network {
	t.Helper()
	net := transport.NewNetwork()
	for _, id := range []transport.NodeID{"n1", "n2", "n3", "n4"} {
		if err := net.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// TestMulticastThresholdReturnsEarly holds one destination hostage behind a
// channel and asserts the call returns once the other two acked, then that
// Wait delivers the straggler's result after release.
func TestMulticastThresholdReturnsEarly(t *testing.T) {
	net := fourNodes(t)
	release := make(chan struct{})
	for _, id := range []transport.NodeID{"n2", "n3"} {
		id := id
		if err := net.Handle(id, "update", func(transport.NodeID, any) (any, error) {
			return string(id) + "-ack", nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Handle("n4", "update", func(transport.NodeID, any) (any, error) {
		<-release
		return "n4-ack", nil
	}); err != nil {
		t.Fatal(err)
	}
	comm := NewComm(net)
	call := comm.MulticastThreshold(context.Background(), "n1", []transport.NodeID{"n2", "n3", "n4"}, "update",
		func(transport.NodeID) any { return "state" }, 2)
	if call.Err != nil {
		t.Fatalf("threshold call failed: %v", call.Err)
	}
	if call.Acked < 2 {
		t.Fatalf("Acked = %d, want >= 2", call.Acked)
	}
	if call.Completed >= 3 {
		t.Fatal("call only returned after the hostage destination completed")
	}
	close(release)
	results := call.Wait()
	if len(results) != 3 {
		t.Fatalf("Wait results = %d, want 3", len(results))
	}
	want := []transport.NodeID{"n2", "n3", "n4"}
	for i, r := range results {
		if r.Node != want[i] {
			t.Fatalf("results[%d] = %s, want %s (destination order)", i, r.Node, want[i])
		}
		if r.Err != nil {
			t.Fatalf("result for %s: %v", r.Node, r.Err)
		}
		if r.Response != string(r.Node)+"-ack" {
			t.Fatalf("response for %s = %v", r.Node, r.Response)
		}
	}
}

// TestMulticastThresholdShortfall cuts off enough destinations that the
// threshold is unreachable and asserts the ErrThresholdShort outcome.
func TestMulticastThresholdShortfall(t *testing.T) {
	net := fourNodes(t)
	if err := net.Handle("n2", "update", func(transport.NodeID, any) (any, error) { return "ack", nil }); err != nil {
		t.Fatal(err)
	}
	net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3", "n4"})
	comm := NewComm(net)
	call := comm.MulticastThreshold(context.Background(), "n1", []transport.NodeID{"n2", "n3", "n4"}, "update",
		func(transport.NodeID) any { return "state" }, 2)
	if !errors.Is(call.Err, ErrThresholdShort) {
		t.Fatalf("Err = %v, want ErrThresholdShort", call.Err)
	}
	// The shortfall is declared as soon as two unreachable sends fail, which
	// races with n2's in-flight ack: Acked may be 0 or 1 at return time. The
	// stable quantity is the eventual ack count from Wait below.
	if call.Acked > 1 {
		t.Fatalf("Acked = %d, want <= 1", call.Acked)
	}
	results := call.Wait()
	var okCount int
	for _, r := range results {
		if r.Err == nil {
			okCount++
		}
	}
	if okCount != 1 {
		t.Fatalf("completed acks = %d, want 1", okCount)
	}
}

// TestMulticastThresholdEdgeCases covers the need clamp and the empty
// destination set.
func TestMulticastThresholdEdgeCases(t *testing.T) {
	net := fourNodes(t)
	for _, id := range []transport.NodeID{"n2", "n3", "n4"} {
		if err := net.Handle(id, "update", func(transport.NodeID, any) (any, error) { return "ack", nil }); err != nil {
			t.Fatal(err)
		}
	}
	comm := NewComm(net)

	// No destinations (sender filtered out): immediate success.
	call := comm.MulticastThreshold(context.Background(), "n1", []transport.NodeID{"n1"}, "update",
		func(transport.NodeID) any { return nil }, 3)
	if call.Err != nil || len(call.Wait()) != 0 {
		t.Fatalf("empty round: err=%v results=%d", call.Err, len(call.Wait()))
	}

	// need above the destination count clamps to a full round.
	call = comm.MulticastThreshold(context.Background(), "n1", []transport.NodeID{"n2", "n3"}, "update",
		func(transport.NodeID) any { return nil }, 99)
	if call.Err != nil || call.Acked != 2 {
		t.Fatalf("clamped round: err=%v acked=%d", call.Err, call.Acked)
	}

	// need 0 issues the sends but succeeds immediately.
	call = comm.MulticastThreshold(context.Background(), "n1", []transport.NodeID{"n2", "n3", "n4"}, "update",
		func(transport.NodeID) any { return nil }, 0)
	if call.Err != nil {
		t.Fatalf("need=0 round: err=%v", call.Err)
	}
	if results := call.Wait(); len(results) != 3 {
		t.Fatalf("need=0 Wait results = %d, want 3", len(results))
	}
}

// TestMulticastThresholdCancelled cancels the context while every send is
// parked in a handler and asserts the call reports the abort without waiting
// for the round.
func TestMulticastThresholdCancelled(t *testing.T) {
	net := fourNodes(t)
	release := make(chan struct{})
	defer close(release)
	for _, id := range []transport.NodeID{"n2", "n3", "n4"} {
		if err := net.Handle(id, "update", func(transport.NodeID, any) (any, error) {
			<-release
			return "ack", nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	comm := NewComm(net)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *ThresholdCall, 1)
	go func() {
		done <- comm.MulticastThreshold(ctx, "n1", []transport.NodeID{"n2", "n3", "n4"}, "update",
			func(transport.NodeID) any { return nil }, 2)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case call := <-done:
		if !errors.Is(call.Err, context.Canceled) {
			t.Fatalf("Err = %v, want context.Canceled", call.Err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled threshold multicast did not return")
	}
}

// TestFilteredViewSharedSliceIsGuarded covers the fast path's aliasing rules:
// a view that covers a sorted, duplicate-free set hands the caller's slice
// back, cap-clamped, so appending to the result reallocates instead of
// writing past the set; an unsorted or duplicated set, or a view that misses a
// member, still gets the view-ordered intersection in a slice of its own.
func TestFilteredViewSharedSliceIsGuarded(t *testing.T) {
	net, gms := threeNodes(t)
	backing := []transport.NodeID{"n1", "n3", "zz"}
	set := backing[:2] // a spare element behind the set, as inside a larger array
	v := gms.FilteredView("n1", set)
	if len(v.Members) != 2 || cap(v.Members) != 2 || &v.Members[0] != &set[0] {
		t.Fatalf("fast path: len %d cap %d shared %v, want the caller's slice with cap 2",
			len(v.Members), cap(v.Members), &v.Members[0] == &set[0])
	}
	grown := append(v.Members, "n9")
	grown[0] = "changed"
	if backing[0] != "n1" || backing[1] != "n3" || backing[2] != "zz" {
		t.Fatalf("append to a filtered view wrote into the caller's array: %v", backing)
	}

	for name, in := range map[string][]transport.NodeID{
		"unsorted":   {"n3", "n1"},
		"duplicated": {"n1", "n1", "n3"},
	} {
		got := gms.FilteredView("n1", in)
		if want := (View{Members: []transport.NodeID{"n1", "n3"}}); !got.Equal(want) {
			t.Errorf("%s set: %v, want members %v", name, got, want.Members)
		}
		if &got.Members[0] == &in[0] {
			t.Errorf("%s set: result shares the caller's slice", name)
		}
	}
	if got := gms.FilteredView("n1", nil); got.Members != nil {
		t.Errorf("nil set: members %v, want nil", got.Members)
	}

	net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	got := gms.FilteredView("n1", set)
	if got.Size() != 1 || got.Members[0] != "n1" || &got.Members[0] == &set[0] {
		t.Fatalf("degraded filtered view = %v (shared %v), want [n1] in its own slice", got, &got.Members[0] == &set[0])
	}
	if got := gms.FilteredView("n3", []transport.NodeID{"n1", "n2"}); got.Members != nil {
		t.Errorf("empty intersection: members %v, want nil", got.Members)
	}
}

// TestMulticastThresholdRoundTable drives one round per row through the
// engine — the sender inside the destination list, every need from 0 to a
// full round, a failing destination, a dead context, and the same again for a
// caller that waits for everybody — and checks what every row shares: results
// in destination order without the sender, the caller's list untouched, Wait
// returning only once every handler that was entered has returned, and
// Drained running exactly once. A round that waits for everybody holds its
// caller until the last handler is back, and with nothing left in flight — no
// destination, or the one it sends to itself — has drained on the caller
// before Run returns. Each row runs with Wait called while sends may be in
// flight and with Wait called after the round drained, which must not make
// its channel.
func TestMulticastThresholdRoundTable(t *testing.T) {
	rows := []struct {
		name      string
		to        []transport.NodeID
		need      int              // < 0: wait for everybody
		cut       transport.NodeID // unreachable destination, "" for none
		cancelled bool
		wantAcks  int // successful results after Wait
		wantErr   error
	}{
		{name: "sender inside to", to: []transport.NodeID{"n1", "n2", "n3", "n4"}, need: 2, wantAcks: 3},
		{name: "sender last in to", to: []transport.NodeID{"n2", "n3", "n1"}, need: 2, wantAcks: 2},
		{name: "need 0", to: []transport.NodeID{"n2", "n3", "n4"}, need: 0, wantAcks: 3},
		{name: "need 1", to: []transport.NodeID{"n2", "n3", "n4"}, need: 1, wantAcks: 3},
		{name: "need len", to: []transport.NodeID{"n2", "n3", "n4"}, need: 3, wantAcks: 3},
		{name: "failing destination, quorum holds", to: []transport.NodeID{"n2", "n3", "n4"}, need: 2, cut: "n3", wantAcks: 2},
		{name: "failing destination, full round short", to: []transport.NodeID{"n2", "n3", "n4"}, need: 3, cut: "n3", wantAcks: 2, wantErr: ErrThresholdShort},
		{name: "cancelled context", to: []transport.NodeID{"n1", "n2", "n3", "n4"}, need: 2, cancelled: true, wantAcks: 0, wantErr: context.Canceled},
		{name: "wait-all", to: []transport.NodeID{"n2", "n1", "n3", "n4"}, need: -1, wantAcks: 3},
		{name: "wait-all, failing destination", to: []transport.NodeID{"n2", "n3", "n4"}, need: -1, cut: "n3", wantAcks: 2},
		{name: "wait-all, one destination", to: []transport.NodeID{"n1", "n4"}, need: -1, wantAcks: 1},
		{name: "wait-all, no destination", to: []transport.NodeID{"n1"}, need: -1, wantAcks: 0},
		{name: "wait-all, cancelled context", to: []transport.NodeID{"n2", "n3", "n4"}, need: -1, cancelled: true, wantAcks: 0},
	}
	for _, row := range rows {
		for _, late := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/late=%v", row.name, late), func(t *testing.T) {
				net := fourNodes(t)
				var entered, returned atomic.Int32
				for _, id := range []transport.NodeID{"n2", "n3", "n4"} {
					id := id
					if err := net.Handle(id, "update", func(_ transport.NodeID, payload any) (any, error) {
						entered.Add(1)
						time.Sleep(time.Duration(id[1]-'0') * time.Millisecond) // n4 is the straggler
						returned.Add(1)
						if want := "for-" + string(id); payload != want {
							return nil, fmt.Errorf("payload %v, want %s", payload, want)
						}
						return string(id) + "-ack", nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				if row.cut != "" {
					net.Crash(row.cut)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if row.cancelled {
					cancel()
				}
				to := append([]transport.NodeID(nil), row.to...)
				want := excluding(to, "n1")

				rec := newRecorder("n1", want, "update", row.need, func(dst transport.NodeID) any { return "for-" + string(dst) })
				err := NewComm(net).Run(ctx, &rec.Round, rec)
				if !errors.Is(err, row.wantErr) {
					t.Fatalf("Run = %v, want %v", err, row.wantErr)
				}
				if row.need < 0 {
					if e, r := entered.Load(), returned.Load(); e != r {
						t.Fatalf("a caller that waits for everybody was released with %d handlers entered, %d returned", e, r)
					}
					if len(want) <= 1 && rec.drains.Load() != 1 {
						t.Fatalf("nothing in flight, yet Run returned before Drained ran (%d calls)", rec.drains.Load())
					}
				}
				rec.mu.Lock()
				acked := rec.acked
				rec.mu.Unlock()
				if row.wantErr == nil && acked < row.need {
					t.Fatalf("returned with %d acks, need %d", acked, row.need)
				}
				if late {
					select {
					case <-rec.drained:
					case <-time.After(time.Second):
						t.Fatal("Drained never ran")
					}
				}
				rec.Wait()
				if e, r := entered.Load(), returned.Load(); e != r {
					t.Fatalf("Wait returned with %d handlers entered, %d returned", e, r)
				}
				if late && rec.done != nil {
					t.Fatal("Wait on a drained round made its channel")
				}
				select {
				case <-rec.drained:
				case <-time.After(time.Second):
					t.Fatal("Drained never ran")
				}
				results := rec.results
				if len(results) != len(want) {
					t.Fatalf("results = %d, want %d", len(results), len(want))
				}
				acks := 0
				for i, r := range results {
					if r.Node != want[i] {
						t.Fatalf("results[%d] = %s, want %s (destination order)", i, r.Node, want[i])
					}
					switch {
					case r.Err == nil:
						acks++
						if r.Response != string(r.Node)+"-ack" {
							t.Errorf("response for %s = %v", r.Node, r.Response)
						}
					case row.cancelled && !errors.Is(r.Err, context.Canceled):
						t.Errorf("result for %s: %v, want the context error", r.Node, r.Err)
					case !row.cancelled && r.Node != row.cut:
						t.Errorf("result for %s: %v", r.Node, r.Err)
					}
				}
				if acks != row.wantAcks {
					t.Fatalf("acks after Wait = %d, want %d", acks, row.wantAcks)
				}
				if row.cancelled && entered.Load() != 0 {
					t.Fatalf("%d sends reached handlers under a dead context", entered.Load())
				}
				for i := range row.to {
					if to[i] != row.to[i] {
						t.Fatalf("destination list modified: %v, want %v", to, row.to)
					}
				}
				time.Sleep(2 * time.Millisecond)
				if n := rec.drains.Load(); n != 1 {
					t.Fatalf("Drained ran %d times, want 1", n)
				}
			})
		}
	}
}

// dispatched is a recorder whose sends the test makes itself (Post).
type dispatched struct {
	recorder
	posted chan struct{}
}

func (d *dispatched) Dispatch() { close(d.posted) }

// TestPostReleasesOnAnswersMadeElsewhere: a round whose Dispatcher makes its
// sends releases an OnVerdict caller at the verdict while a destination is
// still unanswered, books the straggler's answer after the release, and
// drains once, after it.
func TestPostReleasesOnAnswersMadeElsewhere(t *testing.T) {
	d := &dispatched{posted: make(chan struct{})}
	d.From, d.To, d.Kind, d.Until = "src", []transport.NodeID{"a", "b", "c"}, "k", OnVerdict
	d.need, d.results, d.drained = 2, make([]Result, 3), make(chan struct{})
	go func() {
		<-d.posted
		d.Answer(0, "ok", nil)
		d.Answer(2, "ok", nil)
	}()
	if err := NewComm(transport.NewNetwork()).Post(context.Background(), &d.Round, d); err != nil {
		t.Fatalf("Post = %v, want the verdict's nil", err)
	}
	if !d.Released() {
		t.Fatal("Post returned with its caller not released")
	}
	select {
	case <-d.drained:
		t.Fatal("the round drained before its straggler answered")
	default:
	}
	d.Answer(1, nil, errors.New("late"))
	select {
	case <-d.drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the round never drained")
	}
	if n := d.drains.Load(); n != 1 {
		t.Fatalf("Drained ran %d times, want 1", n)
	}
	if d.results[1].Err == nil || d.results[0].Response != "ok" {
		t.Fatalf("results = %+v, want the straggler's error booked", d.results)
	}
}
