//go:build !race

package group

import (
	"context"
	"testing"

	"dedisys/internal/transport"
)

// ackCounter is the smallest owner a threshold round can have: one payload
// for everybody, a count of acks, no results kept.
type ackCounter struct {
	Round
	need, acked int
}

func (a *ackCounter) Payload(int) any { return "state" }

func (a *ackCounter) Answered(_ int, _ any, err error) Verdict {
	if err == nil {
		a.acked++
	}
	if a.acked >= a.need {
		return Satisfied
	}
	return Open
}

func (a *ackCounter) Drained() {}

// Ceilings of TestThresholdRoundAllocs. Measured: 3.00 either way — the
// caller's round (the adapter's ThresholdCall holds round and results in
// one), the senders' function value, and the channel Wait makes because at
// AllocsPerRun's GOMAXPROCS(1) it always finds the straggler in flight. The
// wake-up channel is 0: the caller received its wake-up, so it went back to
// the Comm's idle list for the next round. Three is also the most a schedule
// can make of it, so there is no headroom to name: the simulated Send of a
// constant to an echo handler allocates nothing, and a wake-up channel made
// per round, a closure or a boxed value per round or per destination fails
// the test. The adapter read 5.00 before the engine, 4.00 before the channel
// was reused.
const (
	engineRoundAllocCeiling  = 3
	adapterRoundAllocCeiling = 3
)

// TestThresholdRoundAllocs counts what one threshold round to two echo peers
// allocates — released at the first ack, the straggler joined inside the
// measured call — through the engine and through the MulticastThreshold
// adapter. Not built under -race, whose runtime allocates on paths the
// production build does not.
func TestThresholdRoundAllocs(t *testing.T) {
	net := fourNodes(t)
	dests := []transport.NodeID{"n2", "n3"}
	for _, id := range dests {
		if err := net.Handle(id, "update", func(transport.NodeID, any) (any, error) { return "ack", nil }); err != nil {
			t.Fatal(err)
		}
	}
	comm := NewComm(net)
	ctx := context.Background()
	engine := testing.AllocsPerRun(2000, func() {
		a := &ackCounter{need: 1}
		a.From, a.To, a.Kind, a.Until = "n1", dests, "update", OnVerdict
		if err := comm.Run(ctx, &a.Round, a); err != nil {
			t.Error(err)
		}
		a.Wait()
	})
	payloadFor := func(transport.NodeID) any { return "state" }
	adapter := testing.AllocsPerRun(2000, func() {
		call := comm.MulticastThreshold(ctx, "n1", dests, "update", payloadFor, 1)
		if call.Err != nil {
			t.Error(call.Err)
		}
		call.Wait()
	})
	t.Logf("one threshold round to two peers: engine %.2f allocs (ceiling %d), adapter %.2f (ceiling %d)",
		engine, engineRoundAllocCeiling, adapter, adapterRoundAllocCeiling)
	if engine > engineRoundAllocCeiling {
		t.Errorf("engine round = %.2f allocs, ceiling %d", engine, engineRoundAllocCeiling)
	}
	if adapter > adapterRoundAllocCeiling {
		t.Errorf("adapter round = %.2f allocs, ceiling %d", adapter, adapterRoundAllocCeiling)
	}
}
