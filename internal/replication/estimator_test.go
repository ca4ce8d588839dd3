package replication

import (
	"context"
	"testing"
	"time"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

func TestRateEstimatorExtrapolates(t *testing.T) {
	now := time.Unix(0, 0)
	est := NewRateEstimator()
	est.Now = func() time.Time { return now }

	// Updates every 10 seconds during healthy mode.
	for i := 0; i < 5; i++ {
		est.Observe("o1")
		now = now.Add(10 * time.Second)
	}
	// Last update was at t=40s; 30 seconds (3 intervals) later the object
	// is expected to have missed 3 updates.
	now = time.Unix(40, 0).Add(30 * time.Second)
	if got := est.Estimate("o1", 5); got != 8 {
		t.Fatalf("estimate = %d, want 8", got)
	}
	// No statistics: estimate equals the local version.
	if got := est.Estimate("unknown", 7); got != 7 {
		t.Fatalf("unknown estimate = %d", got)
	}
	est.Forget("o1")
	if got := est.Estimate("o1", 5); got != 5 {
		t.Fatalf("forgotten estimate = %d", got)
	}
}

func TestRateEstimatorSingleObservation(t *testing.T) {
	est := NewRateEstimator()
	now := time.Unix(0, 0)
	est.Now = func() time.Time { return now }
	est.Observe("o1")
	now = now.Add(time.Hour)
	// One observation gives no interval: no extrapolation.
	if got := est.Estimate("o1", 3); got != 3 {
		t.Fatalf("estimate = %d", got)
	}
}

func TestRateEstimatorAttachedToManager(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	mgr := h.node("n1").mgr

	now := time.Unix(0, 0)
	est := NewRateEstimator()
	est.Now = func() time.Time { return now }
	est.Attach(mgr)

	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(0)})
	// Healthy updates every second establish the rate.
	for i := 1; i <= 5; i++ {
		now = now.Add(time.Second)
		h.write(t, "n1", "f1", "sold", int64(i))
	}
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	// Four seconds into the partition: ~4 missed updates expected.
	now = now.Add(4 * time.Second)
	_, st, err := mgr.Lookup(context.Background(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	if !st.PossiblyStale {
		t.Fatal("degraded lookup not stale")
	}
	if st.MissedEstimate() < 3 || st.MissedEstimate() > 5 {
		t.Fatalf("missed estimate = %d, want ~4", st.MissedEstimate())
	}
	// The backup observed the same propagated updates and extrapolates too.
	est2 := NewRateEstimator()
	est2.Now = est.Now
	_ = est2 // backup estimator wiring is analogous; primary-side suffices here
}

// TestAdoptionIsAnObservedApply heals a partition in which n2 alone wrote:
// n1's reconcile pass adopts n2's dominating record. The adoption goes
// through applyOps like any other apply, so a RateEstimator attached to n1
// sees exactly one update of the object (the retired adopt() notified
// nobody), while replica table and entity change exactly as recorded from
// adopt() at the parent of the commit that retired it, and the stored record
// is the replica's whole record before and after (it was the coordinator's
// create record, then the adopted vector).
func TestAdoptionIsAnObservedApply(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	h.write(t, "n2", "f1", "sold", int64(77))
	h.write(t, "n2", "f1", "sold", int64(78))
	h.net.Heal()

	n1 := h.node("n1")
	// Observe reads the clock once per call; nothing below calls Estimate.
	observes := 0
	est := NewRateEstimator()
	est.Now = func() time.Time { observes++; return time.Unix(int64(observes), 0) }
	est.Attach(n1.mgr)
	before := n1.dump(t)
	report, err := n1.mgr.ReconcileWith(context.Background(), []transport.NodeID{"n2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Adopted != 1 || report.Pushed != 0 || report.Conflicts != 0 || report.Created != 0 {
		t.Fatalf("report = %+v, want one adoption", report)
	}
	if _, ok := est.stats["f1"]; !ok || len(est.stats) != 1 || observes != 1 {
		t.Errorf("estimator saw %d updates of %d objects, want exactly one, of f1", observes, len(est.stats))
	}
	const recorded = `-replica f1 Flight v1 {"sold":70} {"n1":1} home=n1 [n1 n2] registry=true
-store f1 {"Class":"Flight","State":{"sold":70},"Version":1,"VV":{"n1":1},"Info":{"home":"n1","replicas":["n1","n2"]}}
+replica f1 Flight v3 {"sold":78} {"n1":1,"n2":2} home=n1 [n1 n2] registry=true
+store f1 {"Class":"Flight","State":{"sold":78},"Version":3,"VV":{"n1":1,"n2":2},"Info":{"home":"n1","replicas":["n1","n2"]}}
`
	if got := delta(before, n1.dump(t)); got != recorded {
		t.Errorf("state change:\n%s\nrecorded:\n%s", got, recorded)
	}
}
