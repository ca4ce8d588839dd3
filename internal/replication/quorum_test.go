package replication

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dedisys/internal/group"
	"dedisys/internal/object"
	"dedisys/internal/transport"
	"dedisys/internal/tx"
)

func TestQuorumCommitAcks(t *testing.T) {
	for _, tc := range []struct {
		threshold, replicas, want int
	}{
		{0, 1, 1}, // singleton: the coordinator alone
		{0, 3, 2}, // majority default
		{0, 4, 3},
		{0, 8, 5},
		{1, 3, 1},  // explicit threshold
		{3, 3, 3},  // full round
		{99, 3, 3}, // clamped down to the replica set
		{-2, 3, 2}, // nonsense thresholds fall back to majority
		{0, 0, 0},  // no replicas, nothing to ack
	} {
		q := Quorum{Threshold: tc.threshold}
		if got := q.CommitAcks(tc.replicas); got != tc.want {
			t.Errorf("Quorum{%d}.CommitAcks(%d) = %d, want %d", tc.threshold, tc.replicas, got, tc.want)
		}
	}
}

func TestQuorumProtocolSemantics(t *testing.T) {
	q := Quorum{}
	info := threeReplicaInfo()

	// Healthy view: home coordinates, writes allowed, reads reliable.
	if c, err := q.Coordinator(info, view("n1", "n2", "n3")); err != nil || c != "n1" {
		t.Errorf("healthy coordinator = %s, %v", c, err)
	}
	if err := q.WriteAllowed(info, view("n1", "n2", "n3"), 1); err != nil {
		t.Errorf("healthy write blocked: %v", err)
	}
	if q.PossiblyStale(info, view("n1", "n2", "n3")) {
		t.Error("healthy view stale")
	}

	// Majority partition without the home: takeover, still writable. Reads
	// stay possibly stale — the threshold round may not have waited for a
	// replica in this partition.
	if c, err := q.Coordinator(info, view("n2", "n3")); err != nil || c != "n2" {
		t.Errorf("takeover coordinator = %s, %v", c, err)
	}
	if err := q.WriteAllowed(info, view("n2", "n3"), 0.66); err != nil {
		t.Errorf("majority write blocked: %v", err)
	}
	if q.PossiblyStale(info, view("n1", "n2")) {
		t.Error("majority view stale")
	}

	// Minority partition: read-only, stale.
	if err := q.WriteAllowed(info, view("n3"), 0.33); !errors.Is(err, ErrWriteNotAllowed) {
		t.Errorf("sub-quorum write: err = %v, want ErrWriteNotAllowed", err)
	}
	if !q.PossiblyStale(info, view("n3")) {
		t.Error("minority view not stale")
	}

	// No reachable replica at all.
	if _, err := q.Coordinator(info, view("n9")); !errors.Is(err, ErrNoReplica) {
		t.Errorf("coordinator without replicas: %v", err)
	}
	if err := q.WriteAllowed(info, view("n9"), 0); !errors.Is(err, ErrNoReplica) {
		t.Errorf("write without replicas: %v", err)
	}

	// An explicit full threshold makes any missing replica block writes.
	full := Quorum{Threshold: 3}
	if err := full.WriteAllowed(info, view("n1", "n2"), 0.66); !errors.Is(err, ErrWriteNotAllowed) {
		t.Errorf("full-threshold write with straggler: %v", err)
	}
}

func TestProtocolByName(t *testing.T) {
	for name, want := range map[string]string{
		"":                  "P4",
		"P4":                "P4",
		"p4":                "P4",
		"primary-backup":    "primary-backup",
		"pb":                "primary-backup",
		"primary-partition": "primary-partition",
		"adaptive-voting":   "adaptive-voting",
		"quorum":            "quorum",
		"q":                 "quorum",
	} {
		p, err := ProtocolByName(name, 0)
		if err != nil {
			t.Fatalf("ProtocolByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("ProtocolByName(%q) = %s, want %s", name, p.Name(), want)
		}
	}
	if _, err := ProtocolByName("bogus", 0); err == nil {
		t.Error("unknown protocol accepted")
	}
	p, err := ProtocolByName("quorum", 3)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := p.(Quorum); !ok || q.Threshold != 3 {
		t.Errorf("quorum threshold not threaded through: %#v", p)
	}
}

// TestQuorumStragglerCatchUp is the core durability property: a commit that
// returned with only the quorum acked while a replica was partitioned loses
// nothing — after healing, reconciliation converges the version vectors and
// the straggler sees every committed write.
func TestQuorumStragglerCatchUp(t *testing.T) {
	h := newHarness(t, 3, Quorum{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	h.node("n1").mgr.WaitPropagation()

	h.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})

	// 2 of 3 replicas reachable: the majority quorum holds, the write
	// commits with n1 (local) + n2 acks.
	h.write(t, "n1", "f1", "sold", int64(77))
	h.node("n1").mgr.WaitPropagation()

	if e, _ := h.node("n2").reg.Get("f1"); e.GetInt("sold") != 77 {
		t.Fatalf("quorum replica = %d, want 77", e.GetInt("sold"))
	}
	if e, _ := h.node("n3").reg.Get("f1"); e.GetInt("sold") != 70 {
		t.Fatalf("partitioned replica = %d, want 70", e.GetInt("sold"))
	}

	// The partitioned minority is read-only and reads possibly stale.
	if err := h.tryWrite("n3", "f1", "sold", int64(99)); !errors.Is(err, ErrWriteNotAllowed) {
		t.Fatalf("minority write: err = %v, want ErrWriteNotAllowed", err)
	}
	if _, st, err := h.node("n3").mgr.Lookup(context.Background(), "f1"); err != nil || !st.PossiblyStale {
		t.Fatalf("minority read stale=%v err=%v, want stale", st.PossiblyStale, err)
	}

	h.net.Heal()
	if _, err := h.node("n1").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n3"}, nil); err != nil {
		t.Fatal(err)
	}
	for _, nid := range h.ids {
		if e, _ := h.node(nid).reg.Get("f1"); e.GetInt("sold") != 77 {
			t.Fatalf("node %s after heal = %d, want 77 (committed write lost)", nid, e.GetInt("sold"))
		}
	}
	vv1, _ := h.node("n1").mgr.VersionVector("f1")
	vv3, _ := h.node("n3").mgr.VersionVector("f1")
	if cmp, ok := vv1.Compare(vv3); !ok || cmp != 0 {
		t.Fatalf("version vectors did not converge: %v vs %v", vv1, vv3)
	}
}

// TestQuorumCommitDecouplesFromSlowLink injects heavy latency on the link to
// one replica and asserts the commit returns in quorum time, while the
// straggler still converges once the background send drains.
func TestQuorumCommitDecouplesFromSlowLink(t *testing.T) {
	h := newHarness(t, 3, Quorum{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	h.node("n1").mgr.WaitPropagation()

	const slow = 120 * time.Millisecond
	h.net.SetLatency(func(from, to transport.NodeID, kind string) time.Duration {
		if to == "n3" {
			return slow
		}
		return 0
	})
	start := time.Now()
	h.write(t, "n1", "f1", "sold", int64(77))
	elapsed := time.Since(start)
	if elapsed >= slow {
		t.Fatalf("quorum commit took %v, still coupled to the slow link (%v)", elapsed, slow)
	}
	h.node("n1").mgr.WaitPropagation()
	if e, _ := h.node("n3").reg.Get("f1"); e.GetInt("sold") != 77 {
		t.Fatalf("straggler = %d after WaitPropagation, want 77", e.GetInt("sold"))
	}
	vv1, _ := h.node("n1").mgr.VersionVector("f1")
	vv3, _ := h.node("n3").mgr.VersionVector("f1")
	if cmp, ok := vv1.Compare(vv3); !ok || cmp != 0 {
		t.Fatalf("straggler vv did not converge: %v vs %v", vv1, vv3)
	}
}

// TestQuorumDuplicateBatchIdempotent redelivers a quorum-committed batch —
// the transport-level duplicate a retried straggler send would produce —
// and asserts the replica neither reapplies state nor advances its vector,
// answering each time with ackAll: a duplicate has landed.
func TestQuorumDuplicateBatchIdempotent(t *testing.T) {
	h := newHarness(t, 3, Quorum{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	// Let the create's straggler reach n2 before writing: a write batch that
	// overtakes it is skipped there as an unknown object, which is no quorum
	// ack (ROADMAP item 1), and the first "redelivery" below would then be
	// the real apply.
	h.node("n1").mgr.WaitPropagation()
	h.write(t, "n1", "f1", "sold", int64(77))
	h.node("n1").mgr.WaitPropagation()

	src := h.node("n1")
	e1, _ := src.reg.Get("f1")
	vv1, _ := src.mgr.VersionVector("f1")
	batch := &batchMsg{Ops: []batchOp{
		{Kind: opApply, ID: "f1", State: e1.Snapshot(), Version: e1.Version(), VV: vv1},
	}}

	dst := h.node("n2").mgr
	for round := 1; round <= 3; round++ {
		resp, err := dst.handleBatch("n1", batch)
		if err != nil {
			t.Fatalf("delivery %d: %v", round, err)
		}
		// The first delivery already happened during commit, so every
		// direct redelivery is a duplicate.
		if resp != any(ackAll) {
			t.Fatalf("delivery %d response = %#v, want ackAll", round, resp)
		}
		if e, _ := h.node("n2").reg.Get("f1"); e.GetInt("sold") != 77 || e.Version() != e1.Version() {
			t.Fatalf("delivery %d mutated the replica: %d v%d", round, e.GetInt("sold"), e.Version())
		}
		vvGot, _ := dst.VersionVector("f1")
		if cmp, ok := vvGot.Compare(vv1); !ok || cmp != 0 {
			t.Fatalf("delivery %d vv = %v, want %v", round, vvGot, vv1)
		}
	}
}

// TestQuorumExplicitThresholdWaitsForAll pins the configurable threshold: at
// Threshold == replica count the commit degenerates to a full round, so the
// replicas are already converged when the commit returns.
func TestQuorumExplicitThresholdWaitsForAll(t *testing.T) {
	h := newHarness(t, 3, Quorum{Threshold: 3})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	h.write(t, "n1", "f1", "sold", int64(77))
	for _, nid := range h.ids {
		if e, _ := h.node(nid).reg.Get("f1"); e.GetInt("sold") != 77 {
			t.Fatalf("node %s = %d right after full-threshold commit, want 77", nid, e.GetInt("sold"))
		}
	}
}

// TestQuorumPerObjectShortfall: a batch over two replica groups is hopeless as
// soon as one object can no longer reach its quorum, however many replicas of
// the other acked. The staged ops are handed to commitBatched directly, past
// WriteAllowed — the race between that check and the send is the only way a
// commit meets an unreachable quorum. (A single count over the union of
// destinations took the other group's acks for this one's and reported
// success.)
func TestQuorumPerObjectShortfall(t *testing.T) {
	h := newHarness(t, 5, Quorum{})
	h.net.Crash("n4")
	h.net.Crash("n5")
	// Creates: a replica that receives one holds it (an apply of an object it
	// never saw would be unknown there, and its ack would not count).
	create := func(id object.ID) batchOp {
		return batchOp{Kind: opCreate, ID: id, Version: 1, VV: VersionVector{{Node: "n1", Count: 1}}}
	}
	staged := []stagedOp{
		{op: create("a"), dests: []transport.NodeID{"n1", "n2", "n3"}, replicas: 3},
		{op: create("b"), dests: []transport.NodeID{"n1", "n4", "n5"}, replicas: 3},
	}
	mgr := h.node("n1").mgr
	err := mgr.commitBatched(tx.NewManager().Begin(), staged)
	mgr.WaitPropagation()
	if !errors.Is(err, group.ErrThresholdShort) {
		t.Fatalf("commit with one object's quorum unreachable = %v, want ErrThresholdShort", err)
	}
	if got := mgr.quorumShort.Load(); got != 1 {
		t.Fatalf("replication.quorum.short = %d, want 1", got)
	}

	// The same two objects with one replica of each group down: both have
	// their majority, and the commit says so.
	h.net.Recover("n5")
	if err := mgr.commitBatched(tx.NewManager().Begin(), staged); err != nil {
		t.Fatalf("commit with a majority of each group = %v", err)
	}
	mgr.WaitPropagation()
}

// TestSkippedApplyIsNoQuorumAck: R = 3 under Quorum{} needs the coordinator
// and one remote replica. n2 has lost the object's replica metadata, so it
// answers the write's apply unknown, and every repl.batch to n3 is lost after
// CheckWrite passed (the view still holds n3). The write is on the
// coordinator alone and the commit must say so; when a nil-error ack counted
// whatever the replica did with the op, n2's skip made the quorum.
func TestSkippedApplyIsNoQuorumAck(t *testing.T) {
	h := newHarness(t, 3, Quorum{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	h.node("n1").mgr.WaitPropagation()
	n2 := h.node("n2").mgr
	n2.mu.Lock()
	delete(n2.meta, "f1")
	n2.mu.Unlock()
	h.net.SetDrop(func(_, to transport.NodeID, kind string) bool { return to == "n3" && kind == msgBatch })

	err := h.tryWrite("n1", "f1", "sold", int64(77))
	h.node("n1").mgr.WaitPropagation()
	if !errors.Is(err, group.ErrThresholdShort) {
		t.Fatalf("commit acked only by a replica that skipped the op = %v, want ErrThresholdShort", err)
	}
	if got := n2.batchSkipped.Load(); got != 1 {
		t.Fatalf("n2 replication.batch.skipped = %d, want 1", got)
	}

	// With n3 back, its ack is the quorum's one remote replica.
	h.net.SetDrop(nil)
	if err := h.tryWrite("n1", "f1", "sold", int64(78)); err != nil {
		t.Fatalf("commit acked by n3 = %v", err)
	}
	h.node("n1").mgr.WaitPropagation()
}

// TestAnsweredCountsLandedOps answers one destination of a two-destination
// threshold round, each of whose objects needs one remote ack, with every
// result code for the first object's op. Uniform: both destinations carry
// both objects and share one account, so the ack counts only if both ops
// landed; the round stays open on the other destination otherwise. Mixed:
// the first destination alone carries the first object, so an ack that does
// not count for it makes the round hopeless. A send error, and a reply that
// is no ack, count for nothing.
func TestAnsweredCountsLandedOps(t *testing.T) {
	h := newHarness(t, 1, Quorum{})
	apply := func(id object.ID) batchOp { return batchOp{Kind: opApply, ID: id} }
	a, b := apply("a"), apply("b")
	uniform := func() *commitRound {
		r := &commitRound{m: h.node("n1").mgr, all: tally{missing: 1, open: 2}}
		r.To, r.shared.Ops = []transport.NodeID{"n2", "n3"}, []batchOp{a, b}
		return r
	}
	mixed := func() *commitRound {
		r := &commitRound{m: h.node("n1").mgr, batches: []batchMsg{{Ops: []batchOp{a, b}}, {Ops: []batchOp{b}}},
			objects: []objectAcks{{id: "a", tally: tally{missing: 1, open: 1}}, {id: "b", tally: tally{missing: 1, open: 2}}}}
		r.To = []transport.NodeID{"n2", "n3"}
		return r
	}
	type answerCase struct {
		name   string
		reply  any
		err    error
		landed bool
	}
	cases := []answerCase{
		{name: "ackAll", reply: ackAll, landed: true},
		{name: "send error", err: errors.New("link down")},
		{name: "no ack", reply: "ok"},
	}
	for c := opApplied; c < numOpResults; c++ {
		cases = append(cases, answerCase{name: fmt.Sprintf("code %d", c), reply: &batchAck{Results: []opResult{c, opApplied}}, landed: c.landed()})
	}
	for _, tc := range cases {
		wantUniform, wantMixed := group.Satisfied, group.Satisfied
		if !tc.landed {
			wantUniform, wantMixed = group.Open, group.Hopeless
		}
		if got := uniform().Answered(0, tc.reply, tc.err); got != wantUniform {
			t.Errorf("%s, uniform batch: verdict %v, want %v", tc.name, got, wantUniform)
		}
		if got := mixed().Answered(0, tc.reply, tc.err); got != wantMixed {
			t.Errorf("%s, mixed batch: verdict %v, want %v", tc.name, got, wantMixed)
		}
	}

	// Mixed, the code on the second object's op: the first object has its
	// ack either way, the second waits for n3 when its op did not land.
	for c := opApplied; c < numOpResults; c++ {
		want := group.Satisfied
		if !c.landed() {
			want = group.Open
		}
		if got := mixed().Answered(0, &batchAck{Results: []opResult{opApplied, c}}, nil); got != want {
			t.Errorf("code %d on the second op, mixed batch: verdict %v, want %v", c, got, want)
		}
	}
}
