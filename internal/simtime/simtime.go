// Package simtime provides the shared simulated-hardware cost model used by
// every layer that charges synthetic latency (network hops, database writes,
// calibration probes). The evaluation reproduces sub-millisecond costs, and
// time.Sleep oversleeps by orders of magnitude below ~100µs, which would
// distort the benchmarked ratios; Charge therefore busy-waits below
// SpinThreshold and sleeps above it.
//
// Keeping the model in one place guarantees that calibration changes cannot
// drift between the transport, persistence and timing layers.
package simtime

import (
	"context"
	"time"
)

// SpinThreshold is the duration above which Charge trusts time.Sleep. Below
// it the scheduler's wake-up jitter dominates the charged cost, so Charge
// spins instead.
const SpinThreshold = time.Millisecond

// Charge blocks the calling goroutine for approximately d, simulating the
// cost of one hardware operation. Non-positive durations cost nothing.
func Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= SpinThreshold {
		time.Sleep(d)
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// ChargeCtx blocks like Charge but aborts early when the context is
// cancelled or past its deadline, returning the context error. A simulated
// hop or per-link latency therefore cannot outlive its caller: an abandoned
// send stops paying simulated time the moment the context dies. The spin
// path polls the context coarsely (every few iterations' worth of clock
// reads) so the sub-millisecond cost calibration is unaffected. A context
// that can never be cancelled (a nil Done channel, as context.Background's)
// is Charge: the sleep parks on the goroutine's own runtime timer, where a
// timer to select on would cost three allocations per charge.
func ChargeCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil {
		Charge(d)
		return nil
	}
	if d >= SpinThreshold {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			return nil
		case <-done:
			return ctx.Err()
		}
	}
	end := time.Now().Add(d)
	for i := 0; time.Now().Before(end); i++ {
		if i%64 == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
	}
	return nil
}
