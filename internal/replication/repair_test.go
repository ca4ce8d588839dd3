package replication

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// These tests hold a reconciliation pass to "one repl.batch per destination":
// what the merge finds the peers are owed is staged and leaves once, a
// restated repair does not leave twice, the K-op batch does to a replica what
// its ops did one by one, and a dead peer costs the others nothing.

// tapBatches re-registers the node's repl.batch handler behind a recorder of
// the ops of every batch delivered to it.
func (h *harness) tapBatches(t *testing.T, id transport.NodeID) *[][]batchOp {
	t.Helper()
	var mu sync.Mutex
	var seen [][]batchOp
	inner := h.node(id).mgr.handleBatch
	if err := h.net.Handle(id, msgBatch, func(from transport.NodeID, payload any) (any, error) {
		if b, ok := payload.(*batchMsg); ok {
			mu.Lock()
			seen = append(seen, b.Ops)
			mu.Unlock()
		}
		return inner(from, payload)
	}); err != nil {
		t.Fatal(err)
	}
	return &seen
}

// table is the part of a dump all replicas agree on once converged: replica
// table and tombstones. The stored bytes differ by role (a coordinator keeps
// the whole creation record, a backup the vector).
func (env *nodeEnv) table(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, l := range strings.SplitAfter(env.dump(t), "\n") {
		if !strings.HasPrefix(l, "store ") {
			b.WriteString(l)
		}
	}
	return b.String()
}

// TestReconcileConflictPushedOnce writes one object on both sides of
// {n1,n2}|{n3,n4} and reconciles from n1. The conflict against n3's record is
// resolved for everybody; n4's record, pulled before that, then reads "we
// dominate". At the parent of the batched pass n4 was sent the resolution
// twice — the conflict's multicast and the push — and the report said
// Pushed == 1; now the restatement meets the op already staged for n4.
func TestReconcileConflictPushedOnce(t *testing.T) {
	h := newHarness(t, 4, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(0)})
	h.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3", "n4"})
	h.write(t, "n1", "f1", "sold", int64(1))
	h.write(t, "n3", "f1", "sold", int64(2))
	h.net.Heal()
	atN4 := h.tapBatches(t, "n4")

	report, err := h.node("n1").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n2", "n3", "n4"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Conflicts != 1 || report.Pushed != 0 {
		t.Errorf("report = %+v, want 1 conflict and nothing pushed besides its resolution", report)
	}
	carrying := 0
	for _, ops := range *atN4 {
		for _, op := range ops {
			if op.ID == "f1" {
				carrying++
			}
		}
	}
	if carrying != 1 || len(*atN4) != 1 {
		t.Errorf("n4 received %d batches with %d ops on f1, want one of each", len(*atN4), carrying)
	}
	want := h.node("n1").table(t)
	for _, id := range h.ids[1:] {
		if got := h.node(id).table(t); got != want {
			t.Errorf("%s after the pass:\n%s\nn1:\n%s", id, got, want)
		}
	}
}

// TestRepairCreateTakesLaterState: n2 missed the creation of an object that
// n1 and n3 then wrote concurrently. Merging n2's table stages the create n2
// is owed; resolving the conflict with n3 afterwards owes every replica an
// apply, which n2 — never having seen the object — would skip. The one op n2
// is sent must be a create carrying the resolution.
func TestRepairCreateTakesLaterState(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.net.Partition([]transport.NodeID{"n1", "n3"}, []transport.NodeID{"n2"})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(0)})
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"}, []transport.NodeID{"n3"})
	h.write(t, "n1", "f1", "sold", int64(1))
	h.write(t, "n3", "f1", "sold", int64(2))
	h.write(t, "n3", "f1", "sold", int64(3)) // most updates: n3's line wins
	h.net.Heal()
	atN2 := h.tapBatches(t, "n2")

	report, err := h.node("n1").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n2", "n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Conflicts != 1 || report.Pushed != 1 {
		t.Errorf("report = %+v, want 1 conflict, 1 pushed (the create)", report)
	}
	if len(*atN2) != 1 || len((*atN2)[0]) != 1 || (*atN2)[0][0].Kind != opCreate {
		t.Fatalf("n2 received %+v, want one batch of one create", *atN2)
	}
	want := h.node("n1").table(t)
	if !strings.Contains(want, `{"sold":3}`) {
		t.Fatalf("n1 did not resolve to n3's line:\n%s", want)
	}
	for _, id := range h.ids[1:] {
		if got := h.node(id).table(t); got != want {
			t.Errorf("%s after the pass:\n%s\nn1:\n%s", id, got, want)
		}
	}
}

// TestRepairBatchEqualsOneOpBatches delivers 40 mixed ops — creates of new and
// of known objects, accepted, stale, duplicate and unknown applies, deletes of
// known and unknown objects — to one replica as a single batch and to another
// one op per batch, in order: replica table, tombstones, registry, stored
// record bytes and the per-op results come out the same. 40 ops spill
// applyOps' stack-backed flag array, which a commit's batch never does.
func TestRepairBatchEqualsOneOpBatches(t *testing.T) {
	info := Info{Home: "n1", Replicas: []transport.NodeID{"n1", "n2"}}
	create := func(id object.ID, sold, version int64, vv VersionVector) batchOp {
		return batchOp{Kind: opCreate, ID: id, Class: "Flight", State: object.AttrsOf(object.State{"sold": sold}), Version: version, VV: vv, Info: info}
	}
	apply := func(id object.ID, sold, version int64, vv VersionVector) batchOp {
		return batchOp{Kind: opApply, ID: id, State: object.AttrsOf(object.State{"sold": sold}), Version: version, VV: vv}
	}
	del := func(id object.ID, vv VersionVector) batchOp {
		return batchOp{Kind: opDelete, ID: id, VV: vv}
	}
	var ops []batchOp
	for i := int64(0); i < 5; i++ {
		known, fresh, gone := object.ID(fmt.Sprintf("k%d", i)), object.ID(fmt.Sprintf("f%d", i)), object.ID(fmt.Sprintf("g%d", i))
		ops = append(ops,
			create(fresh, i, 1, VersionVector{{Node: "n1", Count: 1}}),                            // new object
			create(known, 10+i, 3, VersionVector{{Node: "n1", Count: 1}, {Node: "n3", Count: 1}}), // known: merges
			apply(known, 20+i, 4, VersionVector{{Node: "n1", Count: 2}, {Node: "n3", Count: 1}}),  // accepted
			apply(known, 30+i, 2, VersionVector{{Node: "n1", Count: 1}}),                          // stale
			apply(known, 20+i, 4, VersionVector{{Node: "n1", Count: 2}, {Node: "n3", Count: 1}}),  // duplicate
			apply(object.ID(fmt.Sprintf("ghost%d", i)), 1, 1, nil),                                // unknown
			del(gone, VersionVector{{Node: "n1", Count: 2}}),                                      // known
			del(object.ID(fmt.Sprintf("never%d", i)), VersionVector{{Node: "n3", Count: 1}}),      // unknown
		)
	}
	if len(ops) != 40 {
		t.Fatalf("%d ops", len(ops))
	}
	replica := func() *nodeEnv {
		env := newHarness(t, 2, PrimaryPerPartition{}).node("n2")
		var setup []batchOp
		for i := 0; i < 5; i++ {
			setup = append(setup,
				create(object.ID(fmt.Sprintf("k%d", i)), 0, 1, VersionVector{{Node: "n1", Count: 1}}),
				create(object.ID(fmt.Sprintf("g%d", i)), 0, 1, VersionVector{{Node: "n1", Count: 1}}))
		}
		env.deliver(t, setup...)
		return env
	}
	results := func(env *nodeEnv, batches ...[]batchOp) (all []opResult) {
		for _, b := range batches {
			res, err := env.mgr.applyStored(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, res...)
		}
		return all
	}
	whole, single := replica(), replica()
	var oneByOne [][]batchOp
	for i := range ops {
		oneByOne = append(oneByOne, ops[i:i+1])
	}
	var want []opResult
	for i := 0; i < 5; i++ {
		want = append(want, opApplied, opApplied, opApplied, opDuplicate, opDuplicate, opUnknown, opApplied, opApplied)
	}
	if resWhole, resSingle := results(whole, ops), results(single, oneByOne...); !slices.Equal(resWhole, want) || !slices.Equal(resSingle, want) {
		t.Errorf("results: one batch %v, one op per batch %v, want %v", resWhole, resSingle, want)
	}
	if a, b := whole.dump(t), single.dump(t); a != b {
		t.Errorf("one batch:\n%s\none op per batch:\n%s", a, b)
	} else if !strings.Contains(a, "tombstone never4") || !strings.Contains(a, `store k4 {"Class":"Flight","State":{"sold":24},"Version":4,"VV":{"n1":2,"n3":1},`) {
		t.Errorf("the batch's last ops left no trace:\n%s", a)
	}
}

// TestRepairFlushServesEveryPeer loses every repl.batch to n3 while n1 heals
// with n2, n3 and n4: the pass repairs n2 and n4, counts n3 in
// replication.propagation_errors and returns an error naming it — at the
// parent the first failed push aborted the pass and n4, after n3 in peer
// order, got nothing. A second pass, the loss gone, completes.
func TestRepairFlushServesEveryPeer(t *testing.T) {
	h := newHarness(t, 4, PrimaryPerPartition{})
	ids := []object.ID{"f1", "f2", "f3"}
	for _, id := range ids {
		h.create(t, "n1", "Flight", id, object.State{"sold": int64(0)})
	}
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"}, []transport.NodeID{"n3"}, []transport.NodeID{"n4"})
	for i, id := range ids {
		h.write(t, "n1", id, "sold", int64(i+1))
	}
	h.create(t, "n1", "Flight", "f9", object.State{"sold": int64(9)}) // a create all three miss
	h.net.Heal()
	h.net.SetDrop(func(_, to transport.NodeID, kind string) bool { return to == "n3" && kind == msgBatch })

	n1 := h.node("n1")
	errsBefore := n1.mgr.propErrors.Load()
	peers := []transport.NodeID{"n2", "n3", "n4"}
	report, err := n1.mgr.ReconcileWith(context.Background(), peers, nil)
	if err == nil || !strings.Contains(err.Error(), "to n3") {
		t.Fatalf("pass with n3's batch lost: err = %v, want one naming n3", err)
	}
	if got := n1.mgr.propErrors.Load() - errsBefore; got != 1 {
		t.Errorf("propagation_errors grew by %d, want 1", got)
	}
	if report.Pushed != 12 || report.PeersContacted != 3 {
		t.Errorf("report = %+v, want 4 objects owed to each of 3 peers", report)
	}
	want := n1.table(t)
	for _, id := range []transport.NodeID{"n2", "n4"} {
		if got := h.node(id).table(t); got != want {
			t.Errorf("%s not repaired by the pass that lost n3:\n%s\nn1:\n%s", id, got, want)
		}
	}
	if h.node("n3").table(t) == want {
		t.Fatal("n3 converged without its batch: the drop did not bite")
	}

	h.net.SetDrop(nil)
	report, err = n1.mgr.ReconcileWith(context.Background(), peers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Pushed != 4 {
		t.Errorf("second pass report = %+v, want the 4 objects n3 is still owed", report)
	}
	if got := h.node("n3").table(t); got != want {
		t.Errorf("n3 after the second pass:\n%s\nn1:\n%s", got, want)
	}
}

// TestPullMergeIsOneStoreWrite: n1 and n2 each write K objects while cut
// apart, and n2 alone writes one more. n1's pass pulls all K+1 records from
// n2: it adopts one and resolves K conflicts, and stores all of it — the
// adopted record and each resolution — in one write of K+1 records. Each
// resolution was a write of its own: 1+K writes.
func TestPullMergeIsOneStoreWrite(t *testing.T) {
	const k = 3
	h := newHarness(t, 2, PrimaryPerPartition{})
	for i := 0; i <= k; i++ {
		h.create(t, "n1", "Flight", object.ID(fmt.Sprint("f", i)), object.State{"sold": int64(0)})
	}
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	for i := 0; i < k; i++ {
		h.write(t, "n1", object.ID(fmt.Sprint("f", i)), "sold", int64(1))
	}
	for i := 0; i <= k; i++ {
		h.write(t, "n2", object.ID(fmt.Sprint("f", i)), "sold", int64(2))
	}
	h.net.Heal()
	env := h.node("n1")
	w0, r0 := env.writes()
	report, err := env.mgr.ReconcileWith(context.Background(), []transport.NodeID{"n2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Conflicts != k || report.Adopted != 1 {
		t.Fatalf("report = %+v, want %d conflicts and 1 adopted", report, k)
	}
	if w, r := env.writes(); w-w0 != 1 || r-r0 != k+1 {
		t.Errorf("the merge made %d store writes of %d records, want 1 of %d", w-w0, r-r0, k+1)
	}
	if got, want := h.node("n2").table(t), env.table(t); got != want {
		t.Errorf("n2 after the pass:\n%s\nn1:\n%s", got, want)
	}
}
