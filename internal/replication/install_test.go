package replication

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// These tests hold applyOps to "decide and install under one lock": whatever
// order and from however many goroutines the batches of one object arrive,
// the state a replica ends up with is the one shipped with the vector it ends
// up with. Each of them fails at the commit before the entity became its own
// lock, where the vector was decided under the replica lock and the state
// installed after it.

// soldOp builds the create (n == 1) or apply (n > 1) of the n-th event on an
// object written by n1 alone: vector {n1:n}, state sold=n, version n.
func (h *harness) soldOp(id object.ID, n int64) batchOp {
	st, vv := object.State{"sold": n}, VersionVector{{Node: "n1", Count: n}}
	if n == 1 {
		return batchOp{Kind: opCreate, ID: id, Class: "Flight", State: object.AttrsOf(st), Version: n, VV: vv, Info: Info{Home: "n1", Replicas: h.ids}}
	}
	return batchOp{Kind: opApply, ID: id, State: object.AttrsOf(st), Version: n, VV: vv}
}

// deliver hands the ops to the replica as one batch.
func (env *nodeEnv) deliver(t *testing.T, ops ...batchOp) {
	t.Helper()
	if _, err := env.mgr.handleBatch("n1", &batchMsg{Ops: ops}); err != nil {
		t.Error(err)
	}
}

// raceEvents delivers events first…last of a fresh object to the replica from
// one goroutine each, round after round, and requires the state under the
// final vector to be the one shipped with it. Each event arrives as the second
// op of a two-object transaction's batch, behind the create of an object of
// its own: batches are decided and installed in op order, so whatever runs
// between a batch's decision and its last install has that much time to.
func raceEvents(t *testing.T, first, last int64, rounds int) {
	if raceEnabled {
		rounds /= 50 // the detector needs no lucky interleaving
	}
	h := newHarness(t, 2, PrimaryPerPartition{})
	dst := h.node("n2")
	for round := 0; round < rounds && !t.Failed(); round++ {
		id := object.ID(fmt.Sprintf("o%d", round))
		for n := int64(1); n < first; n++ {
			dst.deliver(t, h.soldOp(id, n))
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for n := first; n <= last; n++ {
			wg.Add(1)
			go func(pad, op batchOp) {
				defer wg.Done()
				<-start
				dst.deliver(t, pad, op)
			}(h.soldOp(object.ID(fmt.Sprintf("%s-pad%d", id, n)), 1), h.soldOp(id, n))
		}
		close(start)
		wg.Wait()
		vv, err := dst.mgr.VersionVector(id)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		e, err := dst.reg.Get(id)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if sold := e.GetInt("sold"); sold != vv.Get("n1") || (first > 1 && sold != last) {
			t.Fatalf("round %d: state sold=%d under vector %v", round, sold, vv)
		}
	}
}

// TestConcurrentAppliesInstallNewest: applies 2…9 race each other. The last
// one dominates whatever it meets, so vector and state must both end on 9.
func TestConcurrentAppliesInstallNewest(t *testing.T) { raceEvents(t, 2, 9, 5000) }

// TestConcurrentCreateAndApplies: the create is among the racers. Applies
// that overtake it are skipped, so the final vector is whichever apply landed
// last in vector order after it — and the state must be that apply's, not
// dropped because the vector was visible before the entity.
func TestConcurrentCreateAndApplies(t *testing.T) { raceEvents(t, 1, 9, 5000) }

// TestStaleCreateKeepsNewerState: a create that reaches a replica again after
// a newer apply (a quorum straggler behind a gossip adoption) adds nothing and
// must install nothing.
func TestStaleCreateKeepsNewerState(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	dst := h.node("n2")
	create := h.soldOp("f1", 1)
	create.State = object.AttrsOf(object.State{"sold": int64(0)})
	dst.deliver(t, create)
	dst.deliver(t, batchOp{Kind: opApply, ID: "f1", State: object.AttrsOf(object.State{"sold": int64(7)}), Version: 2, VV: VersionVector{{Node: "n1", Count: 2}}})
	dst.deliver(t, create)
	e, _ := dst.reg.Get("f1")
	vv, _ := dst.mgr.VersionVector("f1")
	if e.GetInt("sold") != 7 || e.Version() != 2 {
		t.Fatalf("sold=%d v%d under %v, want the apply's sold=7 v2", e.GetInt("sold"), e.Version(), vv)
	}
}

// TestDeliveryOrderDoesNotMatter is the sequential net under the concurrent
// tests: the create, then applies 2…5 in every order, then the whole sequence
// a second time (duplicates, the stale create included) always ends on the
// same replica table, registry and stored bytes. TestReplicaRuleExhaustive
// generalises it to deletes, re-creates and two coordinators.
func TestDeliveryOrderDoesNotMatter(t *testing.T) {
	const want = `replica o Flight v5 {"sold":5} {"n1":5} home=n1 [n1 n2] registry=true
store o {"Class":"Flight","State":{"sold":5},"Version":5,"VV":{"n1":5},"Info":{"home":"n1","replicas":["n1","n2"]}}
`
	var permute func(done, rest []int64)
	permute = func(done, rest []int64) {
		if len(rest) > 0 {
			for i := range rest {
				next := append(append([]int64(nil), rest[:i]...), rest[i+1:]...)
				permute(append(done[:len(done):len(done)], rest[i]), next)
			}
			return
		}
		h := newHarness(t, 2, PrimaryPerPartition{})
		dst := h.node("n2")
		for pass := 0; pass < 2; pass++ {
			for _, n := range done {
				dst.deliver(t, h.soldOp("o", n))
			}
		}
		if got := dst.dump(t); got != want {
			t.Errorf("order %v:\n%s\nwant:\n%s", done, got, want)
		}
	}
	permute([]int64{1}, []int64{2, 3, 4, 5})
}

// reCreateOps is a history of f1 across two incarnations: created at n1
// {n1:1}, deleted {n1:2}, re-created at n2 {n1:2,n2:1} with home n2, and
// written at n1 {n1:3,n2:1}.
func reCreateOps() []batchOp {
	all := []transport.NodeID{"n1", "n2"}
	return []batchOp{
		{Kind: opCreate, ID: "f1", Class: "Flight", State: object.AttrsOf(object.State{"sold": int64(1)}), Version: 1, VV: VersionVector{{Node: "n1", Count: 1}}, Info: NewInfo("n1", all)},
		{Kind: opDelete, ID: "f1", VV: VersionVector{{Node: "n1", Count: 2}}},
		{Kind: opCreate, ID: "f1", Class: "Flight", State: object.AttrsOf(object.State{"sold": int64(3)}), Version: 1, VV: VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}, Info: NewInfo("n2", all)},
		{Kind: opApply, ID: "f1", State: object.AttrsOf(object.State{"sold": int64(4)}), Version: 2, VV: VersionVector{{Node: "n1", Count: 3}, {Node: "n2", Count: 1}}},
	}
}

// reCreateHeld is what a replica holds after every op of reCreateOps.
const reCreateHeld = `replica f1 Flight v2 {"sold":4} {"n1":3,"n2":1} home=n2 [n1 n2] registry=true
store f1 {"Class":"Flight","State":{"sold":4},"Version":2,"VV":{"n1":3,"n2":1},"Info":{"home":"n2","replicas":["n1","n2"]}}
`

// TestReCreateTakesItsPlacementInEveryOrder hands a replica the ops of
// reCreateOps in several orders, each landing every op (none hands the write
// over before a create). Whatever the order, it ends on the re-creation's
// placement: a newer create installs its placement with its state, and one
// that a later write overtook brings it alone. The order create, re-create,
// delete used to keep home n1, and so did the write ahead of the delete and
// the re-create; both replicas stored the same vector, so nothing told them
// apart.
func TestReCreateTakesItsPlacementInEveryOrder(t *testing.T) {
	ops := reCreateOps()
	for _, order := range [][]int{{0, 1, 2, 3}, {0, 2, 1, 3}, {0, 3, 1, 2}, {0, 3, 2, 1}, {1, 2, 3, 0}, {2, 3, 0, 1}} {
		h := newHarness(t, 2, PrimaryPerPartition{})
		dst := h.node("n2")
		for _, i := range order {
			dst.deliver(t, ops[i])
		}
		if got := dst.dump(t); got != reCreateHeld {
			t.Errorf("order %v:\n%s\nwant:\n%s", order, got, reCreateHeld)
		}
	}
}

// TestReconciliationCarriesTheNewerPlacement: n1 took the create, the
// delete and the re-create of reCreateOps, n2 the first create and the
// write, which overtook the other two. n2 holds the newer state under the
// first incarnation's placement, n1 an older state under the re-creation's.
// One pass, whichever node drives it, leaves both on the newer state and the
// newer placement: a pulled record brings its placement when that was set at
// a newer vector, and a driver whose placement is newer owes the peer its
// create even where the peer's state is as new or newer.
func TestReconciliationCarriesTheNewerPlacement(t *testing.T) {
	ops := reCreateOps()
	for _, driver := range []transport.NodeID{"n1", "n2"} {
		h := newHarness(t, 2, PrimaryPerPartition{})
		h.node("n1").deliver(t, ops[0], ops[1], ops[2])
		h.node("n2").deliver(t, ops[0], ops[3])
		peer := transport.NodeID("n2")
		if driver == "n2" {
			peer = "n1"
		}
		if _, err := h.node(driver).mgr.ReconcileWith(context.Background(), []transport.NodeID{peer}, nil); err != nil {
			t.Fatal(err)
		}
		for _, id := range h.ids {
			if got := h.node(id).dump(t); got != reCreateHeld {
				t.Errorf("%s drove: %s holds\n%s\nwant:\n%s", driver, id, got, reCreateHeld)
			}
		}
	}
}

// TestStaleCreateStaysDeleted: a deletion {n1:2} that overtook the create
// {n1:1} it follows covers it. The straggler create is a duplicate and brings
// nothing back; it used to drop the tombstone and revive the object at {n1:1}.
func TestStaleCreateStaysDeleted(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	dst := h.node("n2")
	dst.deliver(t, batchOp{Kind: opDelete, ID: "f1", VV: VersionVector{{Node: "n1", Count: 2}}})
	dst.deliver(t, h.soldOp("f1", 1))
	if got, want := dst.dump(t), "tombstone f1 {\"n1\":2}\n"; got != want {
		t.Fatalf("after the delete and its stale create:\n%s\nwant:\n%s", got, want)
	}
}

// TestCommittedReCreateSurvivesReconciliation: n1 deletes f1, n2 applies the
// deletion, and then n1 re-creates f1 in a partition n2 is not in. Whichever
// node runs the reconciliation, both end with the re-created object: it is
// newer than the deletion. It used to be deleted on both when n2 ran it.
func TestCommittedReCreateSurvivesReconciliation(t *testing.T) {
	for _, puller := range []transport.NodeID{"n1", "n2"} {
		h := newHarness(t, 2, PrimaryPerPartition{})
		h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
		env := h.node("n1")
		txn := env.txm.Begin()
		if err := env.mgr.Delete(txn, "f1"); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
		h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(2)})
		h.net.Heal()
		peer := transport.NodeID("n1")
		if puller == "n1" {
			peer = "n2"
		}
		if _, err := h.node(puller).mgr.ReconcileWith(context.Background(), []transport.NodeID{peer}, nil); err != nil {
			t.Fatal(err)
		}
		for _, id := range h.ids {
			if e, err := h.node(id).reg.Get("f1"); err != nil || e.GetInt("sold") != 2 {
				t.Fatalf("%s pulled: %s holds %v, %v; want the re-created sold=2", puller, id, e, err)
			}
		}
		if a, b := h.node("n1").table(t), h.node("n2").table(t); a != b {
			t.Fatalf("%s pulled: n1 holds\n%s\nn2 holds\n%s", puller, a, b)
		}
	}
}

// TestDeleteKeepsTheVectorItMet: n1's deletion {n1:2} meets a replica live at
// {n1:1,n3:1}, a write it never saw. Shipped in a batch or re-propagated by a
// merge, it leaves the same tombstone, both vectors merged; the batch used to
// leave the deletion's own {n1:2}.
func TestDeleteKeepsTheVectorItMet(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	met := VersionVector{{Node: "n1", Count: 1}, {Node: "n3", Count: 1}}
	del := batchOp{Kind: opDelete, ID: "f1", VV: VersionVector{{Node: "n1", Count: 2}}}
	const want = "tombstone f1 {\"n1\":2,\"n3\":1}\n"

	shipped := h.node("n2")
	shipped.deliver(t, h.soldOp("f1", 1), batchOp{Kind: opApply, ID: "f1", State: object.AttrsOf(object.State{"sold": int64(3)}), Version: 2, VV: met})
	shipped.deliver(t, del)
	if got := shipped.dump(t); got != want {
		t.Errorf("shipped deletion leaves:\n%s\nwant:\n%s", got, want)
	}

	merged := h.node("n1")
	merged.deliver(t, del)
	rec := Record{ID: "f1", Class: "Flight", State: object.AttrsOf(object.State{"sold": int64(3)}), Version: 2, VV: met, Info: Info{Home: "n1", Replicas: h.ids}}
	if _, err := merged.merge("n3", []Record{rec}); err != nil {
		t.Fatal(err)
	}
	if got := merged.dump(t); got != want {
		t.Errorf("merged deletion leaves:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecordsDuringLocalWrites: a reconcile pull's reply exports the replica
// table while a local transaction is writing one of its entities. The
// export takes no lock the writer holds, so the entity must keep one call
// whole by itself: the exported state is the one of the exported version (the
// transaction's writes land a, b, c in turn, so the version says how far each
// attribute is), and writer and exporter never meet in the map.
func TestRecordsDuringLocalWrites(t *testing.T) {
	exports := 20000
	if raceEnabled {
		exports = 1000
	}
	h := newHarness(t, 1, PrimaryPerPartition{})
	env := h.node("n1")
	h.create(t, "n1", "Flight", "f1", object.State{"a": int64(0), "b": int64(0), "c": int64(0)})
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		e, _ := env.reg.Get("f1")
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			txn := env.txm.Begin()
			txn.RecordUpdate(e)
			e.Set("a", i)
			e.Set("b", i)
			e.Set("c", i)
			if err := txn.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for ; exports > 0; exports-- {
		rec := env.records(t, "n1")[0]
		sets := rec.Version - 1
		full, part := sets/3, sets%3
		want := object.State{"a": full, "b": full, "c": full}
		if part >= 1 {
			want["a"] = full + 1
		}
		if part == 2 {
			want["b"] = full + 1
		}
		if !reflect.DeepEqual(rec.State.Map(), want) {
			t.Fatalf("exported v%d with state %v, want %v", rec.Version, rec.State, want)
		}
	}
}
