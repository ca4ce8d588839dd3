package replication

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// The tests in this file guard the copy-on-write rule of the replicated
// write: on the simulator a commit hands the coordinator's own attribute list
// and version vector to every replica, the undo log and the history, so each
// test lets one holder write and requires every other holder unchanged. Each
// fails when the step it names is taken out.

// sameList reports whether two non-empty attribute lists are one list, not
// merely equal ones.
func sameList(a, b object.Attrs) bool {
	return len(a) > 0 && len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// entityOf returns a node's replica of the object.
func (h *harness) entityOf(t *testing.T, node transport.NodeID, id object.ID) *object.Entity {
	t.Helper()
	e, err := h.node(node).reg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// requireShared fails the test unless every given node's replica of the
// object is backed by one attribute list: without that the test around it
// would guard nothing. Looking marks the entities shared, so tests look at a
// control object written the same way as the one they then assert on.
func (h *harness) requireShared(t *testing.T, id object.ID, nodes ...transport.NodeID) object.Attrs {
	t.Helper()
	first, _ := h.entityOf(t, nodes[0], id).Share()
	for _, n := range nodes[1:] {
		if other, _ := h.entityOf(t, n, id).Share(); !sameList(first, other) {
			t.Fatalf("%s and %s hold different lists of %s: the commit copied the state", nodes[0], n, id)
		}
	}
	return first
}

// TestAliasStragglerSim (guards Entity.Set's copy and the bump by
// reassignment): a quorum commit returns at the majority ack while the batch
// for the third replica is still in flight, holding the coordinator's list
// and vector. The coordinator rewrites the object at once; the straggler must
// still install the first write.
func TestAliasStragglerSim(t *testing.T) {
	h := newHarness(t, 3, Quorum{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(0), "tags": []string{"a"}})
	n1 := h.node("n1").mgr
	n1.WaitPropagation()

	// The first batch for n3 parks inside the link until released; while it
	// is parked every later one for n3 is lost.
	var held atomic.Bool
	holding, release := make(chan struct{}), make(chan struct{})
	toN3 := func(from, to transport.NodeID, kind string) bool {
		return from == "n1" && to == "n3" && kind == msgBatch
	}
	h.net.SetDrop(func(from, to transport.NodeID, kind string) bool {
		return toN3(from, to, kind) && held.Load()
	})
	h.net.SetLatency(func(from, to transport.NodeID, kind string) time.Duration {
		if toN3(from, to, kind) && held.CompareAndSwap(false, true) {
			close(holding)
			<-release
		}
		return 0
	})

	h.write(t, "n1", "f1", "sold", int64(1))
	<-holding
	firstVV, err := n1.VersionVector("f1")
	if err != nil {
		t.Fatal(err)
	}
	h.write(t, "n1", "f1", "sold", int64(2))
	h.write(t, "n1", "f1", "tags", []string{"b"})
	close(release)
	n1.WaitPropagation()

	if e := h.entityOf(t, "n3", "f1"); e.GetInt("sold") != 1 || !reflect.DeepEqual(e.MustGet("tags"), []string{"a"}) {
		t.Fatalf("straggler installed %v, want the first write's state", e.Snapshot())
	}
	if vv, _ := h.node("n3").mgr.VersionVector("f1"); !reflect.DeepEqual(vv, firstVV) {
		t.Fatalf("straggler installed vector %v, want the first write's %v", vv, firstVV)
	}
	lastVV, _ := n1.VersionVector("f1")
	for _, id := range []transport.NodeID{"n1", "n2"} {
		e := h.entityOf(t, id, "f1")
		if e.GetInt("sold") != 2 || !reflect.DeepEqual(e.MustGet("tags"), []string{"b"}) {
			t.Fatalf("%s holds %v, want the last write's state", id, e.Snapshot())
		}
		if vv, _ := h.node(id).mgr.VersionVector("f1"); !reflect.DeepEqual(vv, lastVV) || lastVV.Get("n1") != firstVV.Get("n1")+2 {
			t.Fatalf("%s holds vector %v, coordinator %v, first write %v", id, vv, lastVV, firstVV)
		}
	}
}

// TestAliasFailover (guards Entity.Set's copy on a replica-installed entity;
// the mark it acts on is set by ApplyState and again by the transaction's
// undo record): after a healthy write all three replicas hold the
// coordinator's list. A partition makes n2 the temporary primary of its own
// partition under P4; its write must not show on the two nodes it cannot
// reach.
func TestAliasFailover(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	for _, id := range []object.ID{"control", "f1"} {
		h.create(t, "n1", "Flight", id, object.State{"sold": int64(0)})
		h.write(t, "n1", id, "sold", int64(1))
	}
	h.requireShared(t, "control", "n1", "n2", "n3")

	h.net.Partition([]transport.NodeID{"n2"}, []transport.NodeID{"n1", "n3"})
	h.write(t, "n2", "f1", "sold", int64(2))
	if got := h.entityOf(t, "n2", "f1").GetInt("sold"); got != 2 {
		t.Fatalf("n2 lost its own write: sold = %d", got)
	}
	for _, id := range []transport.NodeID{"n1", "n3"} {
		if got := h.entityOf(t, id, "f1").GetInt("sold"); got != 1 {
			t.Fatalf("%s reads sold = %d through a partition, want 1", id, got)
		}
	}
}

// TestAliasBareSet (guards the shared marks a commit leaves behind —
// ApplyState's on the replicas, localOp's on the coordinator): a Set
// with no transaction around it — application code holding an entity, a test
// — on a replica-installed entity, then on the coordinator's, changes neither
// the other replica nor the degraded-mode history entry of that write.
func TestAliasBareSet(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{}, func(c *Config) { c.KeepHistory = true })
	for _, id := range []object.ID{"control", "f1"} {
		h.create(t, "n1", "Flight", id, object.State{"sold": int64(0), "refs": []object.ID{"r1"}})
	}
	h.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	for _, id := range []object.ID{"control", "f1"} {
		h.write(t, "n1", id, "sold", int64(5))
	}
	if hist := h.node("n1").mgr.History("control"); len(hist) != 1 || !sameList(hist[0].State, h.requireShared(t, "control", "n1", "n2")) {
		t.Fatalf("history %v does not share the committed state", hist)
	}
	history := h.node("n1").mgr.History("f1")
	if len(history) != 1 {
		t.Fatalf("history = %v", history)
	}
	want := history[0].State.Map()

	h.entityOf(t, "n2", "f1").Set("sold", int64(6))
	h.entityOf(t, "n2", "f1").Set("refs", []object.ID{"r2"})
	if got := h.entityOf(t, "n1", "f1").Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a bare Set on n2 changed n1's replica: %v", got)
	}
	h.entityOf(t, "n1", "f1").Set("sold", int64(7))
	if got := h.entityOf(t, "n2", "f1").GetInt("sold"); got != 6 {
		t.Fatalf("a bare Set on n1 changed n2's replica: sold = %d", got)
	}
	if !reflect.DeepEqual(history[0].State.Map(), want) {
		t.Fatalf("bare Sets changed the history entry: %v, want %v", history[0].State, want)
	}
}

// TestAliasRecordsExport (guards the shared mark Share leaves when a record is
// built): a reconcile pull's reply exports the entity's own list, not
// a copy, and the local writes that follow — a bare Set, then a transaction —
// leave the exported record as it was.
func TestAliasRecordsExport(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	for _, id := range []object.ID{"control", "f1"} {
		h.create(t, "n1", "Flight", id, object.State{"sold": int64(1), "refs": []object.ID{"r1"}})
		// The list is the entity's own again: only the export marks it.
		h.entityOf(t, "n1", id).Set("sold", int64(2))
	}
	recs := h.node("n1").records(t, "n2")
	if state, version := h.entityOf(t, "n1", "control").Share(); !sameList(recs[0].State, state) || recs[0].Version != version {
		t.Fatalf("the export copied the state: %v v%d, entity %v v%d", recs[0].State, recs[0].Version, state, version)
	}
	rec, e := recs[1], h.entityOf(t, "n1", "f1")
	want := rec.State.Map()
	e.Set("sold", int64(3))
	e.Set("refs", []object.ID{"r2"})
	h.write(t, "n1", "f1", "sold", int64(4))
	if !reflect.DeepEqual(rec.State.Map(), want) {
		t.Fatalf("local writes changed the exported record: %v, want %v", rec.State, want)
	}
	if got := e.GetInt("sold"); got != 4 {
		t.Fatalf("entity lost its writes: sold = %d", got)
	}
}

// vectorLog records, by reference, every version vector that crosses the
// network in a repl.batch, with a deep copy taken at that moment beside it.
type vectorLog struct {
	mu     sync.Mutex
	seen   []VersionVector
	copies []VersionVector
}

func (l *vectorLog) add(vv VersionVector) {
	if vv == nil {
		return // an op shipped without a vector
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen = append(l.seen, vv)
	l.copies = append(l.copies, vv.Clone())
}

// tap re-registers every node's repl.batch handler behind the recorder. (The
// network's drop hook sees no payload, so the recorder sits one step later,
// on the receiving side of the same delivery.)
func (l *vectorLog) tap(t *testing.T, h *harness) {
	t.Helper()
	for _, id := range h.ids {
		mgr := h.node(id).mgr
		err := h.net.Handle(id, msgBatch, func(from transport.NodeID, payload any) (any, error) {
			// A tap that records nothing must say why: a payload form it does not
			// know would otherwise pass as "no vectors shipped".
			if b, ok := payload.(*batchMsg); ok {
				for i := range b.Ops {
					l.add(b.Ops[i].VV)
				}
			} else {
				t.Errorf("%s payload from %s is a %T, want *batchMsg", msgBatch, from, payload)
			}
			return mgr.handleBatch(from, payload)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAliasVectorsNeverWritten (guards bump and merge by reassignment): the
// replica table, the tombstones and the messages share vectors, so none that
// was ever shipped may change afterwards — whatever commits, merges and
// repairs follow it.
func TestAliasVectorsNeverWritten(t *testing.T) {
	var log vectorLog
	ctx := context.Background()
	send := func(h *harness, from, to transport.NodeID, op batchOp) {
		t.Helper()
		if _, err := h.net.Send(ctx, from, to, msgBatch, &batchMsg{Ops: []batchOp{op}}); err != nil {
			t.Fatal(err)
		}
	}

	h := newHarness(t, 3, PrimaryPerPartition{})
	log.tap(t, h)
	for _, id := range []object.ID{"f1", "f2", "f3"} {
		h.create(t, "n1", "Flight", id, object.State{"sold": int64(0)})
	}
	for i := 1; i <= 3; i++ {
		h.write(t, "n1", "f1", "sold", int64(i))
		h.write(t, "n2", "f1", "sold", int64(10+i)) // a second coordinator bumps the vector it was sent
	}
	// Create over a known object: n2 merges a foreign line into the vector it
	// installed from the last apply.
	send(h, "n3", "n2", batchOp{Kind: opCreate, ID: "f1", Class: "Flight", State: object.AttrsOf(object.State{"sold": int64(20)}), Version: 20, VV: VersionVector{{Node: "n9", Count: 4}}})
	h.write(t, "n2", "f1", "sold", int64(21))

	// Delete, then a second delete over the tombstone with a foreign line.
	env := h.node("n1")
	txn := env.txm.Begin()
	if err := env.mgr.Delete(txn, "f3"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	send(h, "n3", "n2", batchOp{Kind: opDelete, ID: "f3", VV: VersionVector{{Node: "n9", Count: 2}}})
	send(h, "n3", "n1", batchOp{Kind: opDelete, ID: "f3", VV: VersionVector{{Node: "n8", Count: 1}}})

	// A split with a write-write conflict, a missed create and a deletion of
	// an object the other side keeps writing; then the heal, both ways.
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2", "n3"})
	h.write(t, "n1", "f1", "sold", int64(31))
	h.write(t, "n2", "f1", "sold", int64(32))
	h.write(t, "n2", "f2", "sold", int64(33))
	h.create(t, "n1", "Flight", "f9", object.State{"sold": int64(0)})
	txn = env.txm.Begin()
	if err := env.mgr.Delete(txn, "f2"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	h.net.Heal()
	report, err := env.mgr.ReconcileWith(ctx, []transport.NodeID{"n2", "n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Conflicts == 0 || report.Pushed == 0 {
		t.Fatalf("heal exercised too little: %+v", report)
	}
	if _, err := h.node("n2").mgr.ReconcileWith(ctx, []transport.NodeID{"n1", "n3"}, nil); err != nil {
		t.Fatal(err)
	}
	h.write(t, "n1", "f1", "sold", int64(40))

	log.mu.Lock()
	defer log.mu.Unlock()
	t.Logf("%d vectors recorded", len(log.seen))
	if len(log.seen) < 30 {
		t.Fatalf("recorded only %d vectors", len(log.seen))
	}
	for i, vv := range log.seen {
		if !reflect.DeepEqual(vv, log.copies[i]) {
			t.Errorf("shipped vector %d was %v when it crossed the network and is %v now", i, log.copies[i], vv)
		}
	}
}
