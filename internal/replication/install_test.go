package replication

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dedisys/internal/object"
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
		return batchOp{Kind: opCreate, ID: id, Class: "Flight", State: st, Version: n, VV: vv, Info: Info{Home: "n1", Replicas: h.ids}}
	}
	return batchOp{Kind: opApply, ID: id, State: st, Version: n, VV: vv}
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
	create.State = object.State{"sold": int64(0)}
	dst.deliver(t, create)
	dst.deliver(t, batchOp{Kind: opApply, ID: "f1", State: object.State{"sold": int64(7)}, Version: 2, VV: VersionVector{{Node: "n1", Count: 2}}})
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
// same replica table, registry and stored bytes.
func TestDeliveryOrderDoesNotMatter(t *testing.T) {
	const want = `replica o Flight v5 {"sold":5} {"n1":5} home=n1 [n1 n2] registry=true
store o {"n1":5}
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

// TestRecordsDuringLocalWrites: a reconcile pull or a gossip delta exports the
// replica table while a local transaction is writing one of its entities. The
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
		rec := env.mgr.Records()[0]
		sets := rec.Version - 1
		full, part := sets/3, sets%3
		want := object.State{"a": full, "b": full, "c": full}
		if part >= 1 {
			want["a"] = full + 1
		}
		if part == 2 {
			want["b"] = full + 1
		}
		if !reflect.DeepEqual(rec.State, want) {
			t.Fatalf("exported v%d with state %v, want %v", rec.Version, rec.State, want)
		}
	}
}
