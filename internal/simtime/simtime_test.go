package simtime

import (
	"context"
	"testing"
	"time"
)

func TestChargeZeroAndNegative(t *testing.T) {
	start := time.Now()
	Charge(0)
	Charge(-time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Millisecond {
		t.Fatalf("non-positive charges took %s", elapsed)
	}
}

func TestChargeSubMillisecondAccuracy(t *testing.T) {
	const d = 200 * time.Microsecond
	start := time.Now()
	Charge(d)
	elapsed := time.Since(start)
	if elapsed < d {
		t.Fatalf("charged %s, want at least %s", elapsed, d)
	}
	// The spin loop should not overshoot the way time.Sleep does at this
	// scale; allow generous headroom for preemption.
	if elapsed > 20*d {
		t.Fatalf("charged %s for a %s cost", elapsed, d)
	}
}

func TestChargeAboveThresholdSleeps(t *testing.T) {
	const d = 2 * time.Millisecond
	start := time.Now()
	Charge(d)
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("charged %s, want at least %s", elapsed, d)
	}
}

// TestChargeCtxCancelledReturnsEarly: a cancellable context still ends the
// charge — one cancelled before it, on the sleep and on the spin path, and one
// whose deadline passes during it — with the context's error, long before d.
func TestChargeCtxCancelledReturnsEarly(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		d    time.Duration
	}{
		{"cancelled, sleep path", cancelled, time.Second},
		{"cancelled, spin path", cancelled, 900 * time.Microsecond},
		{"deadline during the charge", expired, time.Second},
	} {
		start := time.Now()
		err := ChargeCtx(c.ctx, c.d)
		if elapsed := time.Since(start); err == nil || err != c.ctx.Err() || elapsed > c.d/2 {
			t.Errorf("%s: ChargeCtx(%s) = %v after %s, want %v well before %s", c.name, c.d, err, elapsed, c.ctx.Err(), c.d)
		}
	}
}
