package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// writeMany updates several objects inside one transaction on the
// coordinator, in sorted object order.
func (h *harness) writeMany(t *testing.T, coord transport.NodeID, attr string, vals map[object.ID]int64) {
	t.Helper()
	env := h.node(coord)
	ids := make([]object.ID, 0, len(vals))
	for id := range vals {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	txn := env.txm.Begin()
	for _, id := range ids {
		e, err := env.reg.Get(id)
		if err != nil {
			_ = txn.Rollback()
			t.Fatal(err)
		}
		txn.RecordUpdate(e)
		e.Set(attr, vals[id])
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedCommitSingleRound is the tentpole's cost claim: a K-object
// transaction pays one commit-time multicast round, not K, and every node
// still converges on the new states.
func TestBatchedCommitSingleRound(t *testing.T) {
	h := newHarness(t, 4, PrimaryPerPartition{})
	const k = 4
	vals := make(map[object.ID]int64, k)
	for i := 0; i < k; i++ {
		id := object.ID(fmt.Sprintf("f%d", i))
		h.create(t, "n1", "Flight", id, object.State{"sold": int64(0)})
		vals[id] = int64(100 + i)
	}
	mgr := h.node("n1").mgr
	rounds, size := mgr.batchRounds.Load(), mgr.batchSize.Load()
	h.writeMany(t, "n1", "sold", vals)
	if got := mgr.batchRounds.Load() - rounds; got != 1 {
		t.Fatalf("commit rounds = %d, want 1", got)
	}
	if got := mgr.batchSize.Load() - size; got != k {
		t.Fatalf("batched ops = %d, want %d", got, k)
	}
	for _, nid := range h.ids {
		for id, want := range vals {
			e, err := h.node(nid).reg.Get(id)
			if err != nil {
				t.Fatalf("node %s missing %s: %v", nid, id, err)
			}
			if e.GetInt("sold") != want {
				t.Fatalf("node %s %s = %d, want %d", nid, id, e.GetInt("sold"), want)
			}
		}
	}
}

// TestBatchedMixedOpsOneTransaction ships a create, an update and a delete
// as one batch and expects every node to apply all three.
func TestBatchedMixedOpsOneTransaction(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	h.create(t, "n1", "Flight", "f2", object.State{"sold": int64(2)})

	env := h.node("n1")
	txn := env.txm.Begin()
	// Create f9, update f1, delete f2 — all in one transaction.
	if err := env.mgr.Create(txn, object.New("Flight", "f9", object.State{"sold": int64(9)}), Info{Home: "n1", Replicas: h.ids}); err != nil {
		t.Fatal(err)
	}
	e1, err := env.reg.Get("f1")
	if err != nil {
		t.Fatal(err)
	}
	txn.RecordUpdate(e1)
	e1.Set("sold", int64(11))
	if err := env.mgr.Delete(txn, "f2"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	for _, nid := range h.ids {
		n := h.node(nid)
		if e, err := n.reg.Get("f9"); err != nil || e.GetInt("sold") != 9 {
			t.Fatalf("node %s create not applied: %v, %v", nid, e, err)
		}
		if e, err := n.reg.Get("f1"); err != nil || e.GetInt("sold") != 11 {
			t.Fatalf("node %s update not applied: %v, %v", nid, e, err)
		}
		if n.reg.Has("f2") {
			t.Fatalf("node %s delete not applied", nid)
		}
	}
}

// TestBatchMidCommitPartitionThenReconcile commits while a partition limits
// delivery to a subset of the replicas: the reachable replica applies the
// batch, the unreachable one stays on the old state with a dominated version
// vector and P4-stale reads, and reconciliation after heal converges all
// replicas.
func TestBatchMidCommitPartitionThenReconcile(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	h.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})

	h.write(t, "n1", "f1", "sold", int64(77))

	// Subset delivery: n2 applied the batch, n3 did not.
	if e, _ := h.node("n2").reg.Get("f1"); e.GetInt("sold") != 77 {
		t.Fatalf("reachable replica = %d, want 77", e.GetInt("sold"))
	}
	if e, _ := h.node("n3").reg.Get("f1"); e.GetInt("sold") != 70 {
		t.Fatalf("partitioned replica = %d, want 70", e.GetInt("sold"))
	}
	// Version vectors: the coordinator dominates the cut-off replica.
	vv1, _ := h.node("n1").mgr.VersionVector("f1")
	vv3, _ := h.node("n3").mgr.VersionVector("f1")
	if cmp, ok := vv1.Compare(vv3); !ok || cmp != 1 {
		t.Fatalf("coordinator vv %v vs partitioned vv %v: cmp=%d ok=%v", vv1, vv3, cmp, ok)
	}
	// P4 staleness semantics are unchanged by batching.
	if _, st, err := h.node("n3").mgr.Lookup(context.Background(), "f1"); err != nil || !st.PossiblyStale {
		t.Fatalf("partitioned read stale=%v err=%v, want stale", st.PossiblyStale, err)
	}

	h.net.Heal()
	if _, err := h.node("n1").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n3"}, nil); err != nil {
		t.Fatal(err)
	}
	for _, nid := range h.ids {
		if e, _ := h.node(nid).reg.Get("f1"); e.GetInt("sold") != 77 {
			t.Fatalf("node %s after heal = %d, want 77", nid, e.GetInt("sold"))
		}
	}
	vv3, _ = h.node("n3").mgr.VersionVector("f1")
	if cmp, ok := vv1.Compare(vv3); !ok || cmp != 0 {
		t.Fatalf("vectors after reconcile: %v vs %v", vv1, vv3)
	}
}

// TestBatchDuplicateDeliveryIdempotent redelivers an already-applied batch:
// the apply is skipped by version-vector comparison, the create merges
// nothing, the delete re-tombstones — no state changes. Each is a duplicate:
// landed, so the replica answers ackAll and counts nothing skipped.
func TestBatchDuplicateDeliveryIdempotent(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	h.create(t, "n1", "Flight", "f2", object.State{"sold": int64(2)})
	h.write(t, "n1", "f1", "sold", int64(5))

	src := h.node("n1")
	e1, _ := src.reg.Get("f1")
	vv1, _ := src.mgr.VersionVector("f1")
	vv2, _ := src.mgr.VersionVector("f2")
	e2, _ := src.reg.Get("f2")
	batch := &batchMsg{Ops: []batchOp{
		{Kind: opCreate, ID: "f2", Class: "Flight", State: object.AttrsOf(e2.Snapshot()), Version: e2.Version(), VV: vv2, Info: Info{Home: "n1", Replicas: h.ids}},
		{Kind: opApply, ID: "f1", State: object.AttrsOf(e1.Snapshot()), Version: e1.Version(), VV: vv1},
	}}

	dst := h.node("n2").mgr
	skippedBefore := dst.batchSkipped.Load()
	for round := 1; round <= 2; round++ {
		resp, err := dst.handleBatch("n1", batch)
		if err != nil {
			t.Fatalf("delivery %d: %v", round, err)
		}
		if resp != any(ackAll) {
			t.Fatalf("delivery %d response = %#v, want ackAll", round, resp)
		}
		if e, _ := h.node("n2").reg.Get("f1"); e.GetInt("sold") != 5 || e.Version() != e1.Version() {
			t.Fatalf("delivery %d state = %d v%d", round, e.GetInt("sold"), e.Version())
		}
		vvGot, _ := dst.VersionVector("f1")
		if cmp, ok := vvGot.Compare(vv1); !ok || cmp != 0 {
			t.Fatalf("delivery %d vv = %v, want %v", round, vvGot, vv1)
		}
	}
	if got := dst.batchSkipped.Load() - skippedBefore; got != 0 {
		t.Fatalf("replication.batch.skipped delta = %d, want 0 (a duplicate is not skipped)", got)
	}
	if res, err := dst.applyStored(batch.Ops, nil); err != nil || !slices.Equal(res, []opResult{opDuplicate, opDuplicate}) {
		t.Fatalf("redelivered create and apply = %v, %v; want both duplicate", res, err)
	}

	// A redelivered delete keeps the object tombstoned: the first drops the
	// replica, every later one is a duplicate. A deletion is an event, so its
	// vector is the replica's bumped, as Delete ships it.
	del := []batchOp{{Kind: opDelete, ID: "f2", VV: vv2.Bumped("n1")}}
	for round, want := range []opResult{opApplied, opDuplicate, opDuplicate} {
		if res, err := dst.applyStored(del, nil); err != nil || !slices.Equal(res, []opResult{want}) {
			t.Fatalf("delete delivery %d = %v, %v; want %v", round+1, res, err, want)
		}
		if h.node("n2").reg.Has("f2") {
			t.Fatalf("delete delivery %d: replica resurrected", round+1)
		}
	}
}

// TestBatchUnknownApplySkipped delivers an apply for an object the receiver
// never saw: the op is skipped (reconciliation catches up later), not an
// error aborting the batch.
func TestBatchUnknownApplySkipped(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	e1, _ := h.node("n1").reg.Get("f1")
	vv1, _ := h.node("n1").mgr.VersionVector("f1")
	vv1 = vv1.Bumped("n1")
	batch := &batchMsg{Ops: []batchOp{
		{Kind: opApply, ID: "ghost", State: object.AttrsOf(object.State{"sold": int64(9)}), Version: 9, VV: VersionVector{{Node: "n1", Count: 9}}},
		{Kind: opApply, ID: "f1", State: object.AttrsOf(object.State{"sold": int64(8)}), Version: e1.Version() + 1, VV: vv1},
	}}
	dst := h.node("n2").mgr
	skippedBefore := dst.batchSkipped.Load()
	resp, err := dst.handleBatch("n1", batch)
	if err != nil {
		t.Fatal(err)
	}
	if want := (&batchAck{Results: []opResult{opUnknown, opApplied}}); !reflect.DeepEqual(resp, want) {
		t.Fatalf("response = %#v, want %#v", resp, want)
	}
	if got := dst.batchSkipped.Load() - skippedBefore; got != 1 {
		t.Fatalf("replication.batch.skipped delta = %d, want 1", got)
	}
	if h.node("n2").reg.Has("ghost") {
		t.Fatal("unknown object installed")
	}
	if e, _ := h.node("n2").reg.Get("f1"); e.GetInt("sold") != 8 {
		t.Fatalf("known op not applied: %d", e.GetInt("sold"))
	}
}

// TestBatchMalformedOpRejectedAtomically sends a batch whose second op has a
// bogus kind: the whole message is rejected before any op mutates state.
func TestBatchMalformedOpRejectedAtomically(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	batch := &batchMsg{Ops: []batchOp{
		{Kind: opCreate, ID: "fx", Class: "Flight", State: object.AttrsOf(object.State{"sold": int64(1)}), Version: 1, VV: VersionVector{{Node: "n1", Count: 1}}, Info: Info{Home: "n1", Replicas: h.ids}},
		{Kind: opDelete + 1}, // the first kind that is none
	}}
	if _, err := h.node("n2").mgr.handleBatch("n1", batch); err == nil {
		t.Fatal("malformed batch accepted")
	}
	if h.node("n2").reg.Has("fx") {
		t.Fatal("partial batch applied before rejection")
	}
	if _, err := h.node("n2").mgr.Info("fx"); err == nil {
		t.Fatal("metadata installed for rejected batch")
	}
}

// TestConcurrentBatchedCommits drives commits from several goroutines over
// disjoint object sets (run with -race); all replicas must converge on each
// goroutine's final value.
func TestConcurrentBatchedCommits(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	const (
		writers = 4
		perG    = 2 // objects per goroutine
		iters   = 5
	)
	oid := func(g, i int) object.ID { return object.ID(fmt.Sprintf("g%d-o%d", g, i)) }
	for g := 0; g < writers; g++ {
		for i := 0; i < perG; i++ {
			h.create(t, "n1", "Flight", oid(g, i), object.State{"sold": int64(0)})
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 1; it <= iters; it++ {
				env := h.node("n1")
				txn := env.txm.Begin()
				for i := 0; i < perG; i++ {
					e, err := env.reg.Get(oid(g, i))
					if err != nil {
						_ = txn.Rollback()
						errs[g] = err
						return
					}
					txn.RecordUpdate(e)
					e.Set("sold", int64(it))
				}
				if err := txn.Commit(); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	for _, nid := range h.ids {
		for g := 0; g < writers; g++ {
			for i := 0; i < perG; i++ {
				e, err := h.node(nid).reg.Get(oid(g, i))
				if err != nil {
					t.Fatalf("node %s missing %s: %v", nid, oid(g, i), err)
				}
				if e.GetInt("sold") != iters {
					t.Fatalf("node %s %s = %d, want %d", nid, oid(g, i), e.GetInt("sold"), iters)
				}
			}
		}
	}
}

// TestPropagationErrorMetricCountsSendFailures checks the commit error
// accounting satellite: a replica that the view still includes but the link
// drops does not fail the commit, yet the lost send is counted in
// replication.propagation_errors, and the reachable replica still applies the
// update.
func TestPropagationErrorMetricCountsSendFailures(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(0)})
	// Lossy link to n3: the view keeps n3 as a destination, the send fails.
	h.net.SetDrop(func(from, to transport.NodeID, kind string) bool { return to == "n3" })
	mgr := h.node("n1").mgr
	before := mgr.propErrors.Load()
	if err := h.tryWrite("n1", "f1", "sold", int64(1)); err != nil {
		t.Fatalf("commit must tolerate lost sends: %v", err)
	}
	if got := mgr.propErrors.Load() - before; got != 1 {
		t.Fatalf("propagation_errors delta = %d, want 1", got)
	}
	if e, _ := h.node("n2").reg.Get("f1"); e.GetInt("sold") != 1 {
		t.Fatalf("reachable replica = %d, want 1", e.GetInt("sold"))
	}
	if e, _ := h.node("n3").reg.Get("f1"); e.GetInt("sold") != 0 {
		t.Fatalf("dropped replica = %d, want 0", e.GetInt("sold"))
	}
}

// dump renders everything handleBatch can change on a node — the replica
// table, the tombstones and every replica's stored record, read back
// (storedText) — in a fixed order, for comparison against a recorded text.
func (env *nodeEnv) dump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, rec := range env.records(t, env.id) {
		if rec.Deleted {
			continue // listed below with the stored bytes' order
		}
		st := []byte("null")
		if rec.State != nil {
			st, _ = json.Marshal(rec.State.Map())
		}
		vv, _ := json.Marshal(vvMap(rec.VV))
		fmt.Fprintf(&b, "replica %s %s v%d %s %s home=%s %v registry=%v\n",
			rec.ID, rec.Class, rec.Version, st, vv, rec.Info.Home, rec.Info.Replicas, env.reg.Has(rec.ID))
	}
	env.mgr.mu.Lock()
	var dead []string
	for id, vv := range env.mgr.tombstones {
		enc, _ := json.Marshal(vvMap(vv))
		dead = append(dead, fmt.Sprintf("tombstone %s %s\n", id, enc))
	}
	env.mgr.mu.Unlock()
	sort.Strings(dead)
	b.WriteString(strings.Join(dead, ""))
	for _, key := range env.store.Keys(tableReplicaMeta) {
		fmt.Fprintf(&b, "store %s %s\n", key, storedText(t, env.store, key))
	}
	return b.String()
}

// TestBatchMixedEffectsMatchRecorded delivers one batch holding every effect
// handleBatch knows — create of a new object, create of a known one (merge),
// an accepted apply, an apply for an unknown object and a stale one (both
// skipped), a delete of a known and of an unknown object — and, before it, a
// batch with a malformed kind. The replica table, tombstones, stored bytes,
// ack and error texts are the ones recorded from the closure-based handler
// before the effects became value records, with two exceptions: a create that
// installs over a known object stores what it installs, as an apply does,
// where it used to leave the stored record (`store a {"n1":1}`); and each
// stored record is the replica's whole record — class, state, version,
// vector and placement, the last two alone for a metadata-only holder — where
// it used to be the vector alone (`store b {"n1":2}`).
func TestBatchMixedEffectsMatchRecorded(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	dst := h.node("n2")
	info := Info{Home: "n1", Replicas: h.ids}
	create := func(id object.ID, sold, version int64, vv VersionVector) batchOp {
		return batchOp{Kind: opCreate, ID: id, Class: "Flight", State: object.AttrsOf(object.State{"sold": sold}), Version: version, VV: vv, Info: info}
	}
	apply := func(id object.ID, sold, version int64, vv VersionVector) batchOp {
		return batchOp{Kind: opApply, ID: id, State: object.AttrsOf(object.State{"sold": sold, "tag": "x<y"}), Version: version, VV: vv}
	}
	setup := &batchMsg{Ops: []batchOp{
		create("a", 1, 1, VersionVector{{Node: "n1", Count: 1}}),
		create("b", 2, 1, VersionVector{{Node: "n1", Count: 1}}),
		create("c", 3, 4, VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 2}}),
		create("outside", 4, 1, VersionVector{{Node: "n1", Count: 1}}),
	}}
	setup.Ops[3].Info = Info{Home: "n1", Replicas: []transport.NodeID{"n1"}}
	if resp, err := dst.mgr.handleBatch("n1", setup); err != nil || resp != any(ackAll) {
		t.Fatalf("setup: %v, %v", resp, err)
	}
	before := dst.dump(t)

	bad := &batchMsg{Ops: []batchOp{
		apply("b", 9, 9, VersionVector{{Node: "n1", Count: 9}}),
		{Kind: opDelete + 1, ID: "zz"},
	}}
	_, err := dst.mgr.handleBatch("n1", bad)
	if err == nil || err.Error() != `replication: bad batch op kind 4 for zz` {
		t.Fatalf("malformed batch: %v", err)
	}
	if after := dst.dump(t); after != before {
		t.Fatalf("malformed batch changed state:\n%s\nwas:\n%s", after, before)
	}

	mixed := &batchMsg{Ops: []batchOp{
		create("d", 5, 1, VersionVector{{Node: "n1", Count: 1}}),
		create("a", 11, 3, VersionVector{{Node: "n1", Count: 2}, {Node: "n3", Count: 1}}),
		apply("b", 12, 2, VersionVector{{Node: "n1", Count: 2}}),
		apply("ghost", 13, 2, VersionVector{{Node: "n1", Count: 2}}),
		apply("c", 14, 5, VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 2}}),
		{Kind: opDelete, ID: "c", VV: VersionVector{{Node: "n1", Count: 3}, {Node: "n2", Count: 2}}},
		{Kind: opDelete, ID: "never", VV: VersionVector{{Node: "n1", Count: 1}}},
		apply("outside", 15, 2, VersionVector{{Node: "n1", Count: 2}}),
	}}
	resp, err := dst.mgr.handleBatch("n1", mixed)
	if err != nil {
		t.Fatal(err)
	}
	want := &batchAck{Results: []opResult{opApplied, opApplied, opApplied, opUnknown, opDuplicate, opApplied, opApplied, opApplied}}
	if !reflect.DeepEqual(resp, want) {
		t.Errorf("ack = %#v, want %#v", resp, want)
	}
	const recorded = `replica a Flight v3 {"sold":11} {"n1":2,"n3":1} home=n1 [n1 n2] registry=true
replica b Flight v2 {"sold":12,"tag":"x\u003cy"} {"n1":2} home=n1 [n1 n2] registry=true
replica d Flight v1 {"sold":5} {"n1":1} home=n1 [n1 n2] registry=true
replica outside  v0 null {"n1":2} home=n1 [n1] registry=false
tombstone c {"n1":3,"n2":2}
tombstone never {"n1":1}
store a {"Class":"Flight","State":{"sold":11},"Version":3,"VV":{"n1":2,"n3":1},"Info":{"home":"n1","replicas":["n1","n2"]}}
store b {"Class":"Flight","State":{"sold":12,"tag":"x\u003cy"},"Version":2,"VV":{"n1":2},"Info":{"home":"n1","replicas":["n1","n2"]}}
store d {"Class":"Flight","State":{"sold":5},"Version":1,"VV":{"n1":1},"Info":{"home":"n1","replicas":["n1","n2"]}}
store outside {"VV":{"n1":2},"Info":{"home":"n1","replicas":["n1"]}}
`
	if got := dst.dump(t); got != recorded {
		t.Errorf("state after the mixed batch:\n%s\nrecorded:\n%s", got, recorded)
	}
	// The payload is shared with the sender's other destinations: read-only.
	if mixed.Ops[2].State.Map()["sold"] != int64(12) || len(mixed.Ops[1].VV) != 2 {
		t.Error("handleBatch modified its payload")
	}
}

// delta renders what changed between two dumps as "-line"/"+line" rows.
func delta(before, after string) string {
	old := strings.Split(strings.TrimSuffix(before, "\n"), "\n")
	now := strings.Split(strings.TrimSuffix(after, "\n"), "\n")
	var b strings.Builder
	for _, l := range old {
		if !slices.Contains(now, l) {
			b.WriteString("-" + l + "\n")
		}
	}
	for _, l := range now {
		if !slices.Contains(old, l) {
			b.WriteString("+" + l + "\n")
		}
	}
	return b.String()
}

// TestBatchOneOpCasesMatchRecorded delivers, as one-op batches, every case
// the retired per-kind handlers used to serve — the ops a reconcile push, a
// forced state install or a re-propagated delete puts into a pass's batch
// (TestRepairBatchEqualsOneOpBatches: K of them in one batch do what they do
// one by one). The change to replica table, registry, tombstones and stored
// bytes is the one recorded from handleBatch at the parent of the commit that
// retired those handlers, with three named exceptions: a delete meeting an
// existing tombstone merges the two vectors where it used to overwrite
// (recorded there: `+tombstone gone {"n3":1}`); a create installing over a
// known object stores what it installs, as an apply does (recorded there
// without the store lines); and each stored record is the replica's whole
// record where it used to be the vector alone. Two cases are new: a newer
// create of another placement or class installs it with its state, where it
// used to keep the replica's (the create was installed as an apply). Each
// op's result is what handleBatch's ack reports of it: applied and duplicate
// land, the rest are skipped. A create or a delete that adds nothing to what the replica holds
// is a duplicate (it was counted applied before the ack listed results).
func TestBatchOneOpCasesMatchRecorded(t *testing.T) {
	info := Info{Home: "n1", Replicas: []transport.NodeID{"n1", "n2"}}
	create := func(id object.ID, sold, version int64, vv VersionVector, in Info) batchOp {
		return batchOp{Kind: opCreate, ID: id, Class: "Flight", State: object.AttrsOf(object.State{"sold": sold}), Version: version, VV: vv, Info: in}
	}
	apply := func(id object.ID, sold, version int64, vv VersionVector) batchOp {
		return batchOp{Kind: opApply, ID: id, State: object.AttrsOf(object.State{"sold": sold}), Version: version, VV: vv}
	}
	del := func(id object.ID, vv VersionVector) batchOp {
		return batchOp{Kind: opDelete, ID: id, VV: vv}
	}
	applied, duplicate := opApplied, opDuplicate
	cases := []struct {
		name  string
		op    batchOp
		res   opResult
		delta string
	}{
		{"create unknown", create("d", 5, 1, VersionVector{{Node: "n1", Count: 1}}, info), applied,
			`+replica d Flight v1 {"sold":5} {"n1":1} home=n1 [n1 n2] registry=true
+store d {"Class":"Flight","State":{"sold":5},"Version":1,"VV":{"n1":1},"Info":{"home":"n1","replicas":["n1","n2"]}}
`},
		{"create known", create("a", 11, 3, VersionVector{{Node: "n1", Count: 2}, {Node: "n3", Count: 1}}, info), applied,
			`-replica a Flight v1 {"sold":1} {"n1":1} home=n1 [n1 n2] registry=true
-store a {"Class":"Flight","State":{"sold":1},"Version":1,"VV":{"n1":1},"Info":{"home":"n1","replicas":["n1","n2"]}}
+replica a Flight v3 {"sold":11} {"n1":2,"n3":1} home=n1 [n1 n2] registry=true
+store a {"Class":"Flight","State":{"sold":11},"Version":3,"VV":{"n1":2,"n3":1},"Info":{"home":"n1","replicas":["n1","n2"]}}
`},
		{"create known, placed elsewhere", create("a", 11, 3, VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}, Info{Home: "n2", Replicas: []transport.NodeID{"n1", "n2"}}), applied,
			`-replica a Flight v1 {"sold":1} {"n1":1} home=n1 [n1 n2] registry=true
-store a {"Class":"Flight","State":{"sold":1},"Version":1,"VV":{"n1":1},"Info":{"home":"n1","replicas":["n1","n2"]}}
+replica a Flight v3 {"sold":11} {"n1":2,"n2":1} home=n2 [n1 n2] registry=true
+store a {"Class":"Flight","State":{"sold":11},"Version":3,"VV":{"n1":2,"n2":1},"Info":{"home":"n2","replicas":["n1","n2"]}}
`},
		{"create known, another class", func() batchOp {
			op := create("a", 11, 3, VersionVector{{Node: "n1", Count: 2}, {Node: "n3", Count: 1}}, info)
			op.Class = "Train"
			return op
		}(), applied,
			`-replica a Flight v1 {"sold":1} {"n1":1} home=n1 [n1 n2] registry=true
-store a {"Class":"Flight","State":{"sold":1},"Version":1,"VV":{"n1":1},"Info":{"home":"n1","replicas":["n1","n2"]}}
+replica a Train v3 {"sold":11} {"n1":2,"n3":1} home=n1 [n1 n2] registry=true
+store a {"Class":"Train","State":{"sold":11},"Version":3,"VV":{"n1":2,"n3":1},"Info":{"home":"n1","replicas":["n1","n2"]}}
`},
		{"create non-replica", create("out", 4, 1, VersionVector{{Node: "n1", Count: 1}}, Info{Home: "n1", Replicas: []transport.NodeID{"n1"}}), applied,
			`+replica out  v0 null {"n1":1} home=n1 [n1] registry=false
+store out {"VV":{"n1":1},"Info":{"home":"n1","replicas":["n1"]}}
`},
		{"create tombstoned", create("gone", 6, 2, VersionVector{{Node: "n1", Count: 3}}, info), applied,
			`-tombstone gone {"n1":2}
+replica gone Flight v2 {"sold":6} {"n1":3} home=n1 [n1 n2] registry=true
+store gone {"Class":"Flight","State":{"sold":6},"Version":2,"VV":{"n1":3},"Info":{"home":"n1","replicas":["n1","n2"]}}
`},
		{"apply newer", apply("b", 12, 2, VersionVector{{Node: "n1", Count: 2}}), applied,
			`-replica b Flight v1 {"sold":2} {"n1":1} home=n1 [n1 n2] registry=true
-store b {"Class":"Flight","State":{"sold":2},"Version":1,"VV":{"n1":1},"Info":{"home":"n1","replicas":["n1","n2"]}}
+replica b Flight v2 {"sold":12} {"n1":2} home=n1 [n1 n2] registry=true
+store b {"Class":"Flight","State":{"sold":12},"Version":2,"VV":{"n1":2},"Info":{"home":"n1","replicas":["n1","n2"]}}
`},
		{"create covered", create("c", 7, 2, VersionVector{{Node: "n1", Count: 1}, {Node: "n2", Count: 2}}, info), duplicate, ""},
		{"apply equal", apply("b", 13, 2, VersionVector{{Node: "n1", Count: 1}}), duplicate, ""},
		{"apply older", apply("c", 14, 5, VersionVector{{Node: "n1", Count: 1}, {Node: "n2", Count: 2}}), duplicate, ""},
		{"apply concurrent", apply("c", 15, 5, VersionVector{{Node: "n1", Count: 3}, {Node: "n2", Count: 1}}), opConcurrent, ""},
		{"apply unknown", apply("ghost", 16, 2, VersionVector{{Node: "n1", Count: 2}}), opUnknown, ""},
		{"delete known", del("c", VersionVector{{Node: "n1", Count: 3}, {Node: "n2", Count: 2}}), applied,
			`-replica c Flight v4 {"sold":3} {"n1":2,"n2":2} home=n1 [n1 n2] registry=true
-store c {"Class":"Flight","State":{"sold":3},"Version":4,"VV":{"n1":2,"n2":2},"Info":{"home":"n1","replicas":["n1","n2"]}}
+tombstone c {"n1":3,"n2":2}
`},
		{"delete unknown", del("never", VersionVector{{Node: "n1", Count: 1}}), applied,
			`+tombstone never {"n1":1}
`},
		{"delete tombstoned", del("gone", VersionVector{{Node: "n3", Count: 1}}), applied,
			`-tombstone gone {"n1":2}
+tombstone gone {"n1":2,"n3":1}
`},
		{"delete covered", del("gone", VersionVector{{Node: "n1", Count: 1}}), duplicate, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 2, PrimaryPerPartition{})
			dst := h.node("n2")
			setup := &batchMsg{Ops: []batchOp{
				create("a", 1, 1, VersionVector{{Node: "n1", Count: 1}}, info),
				create("b", 2, 1, VersionVector{{Node: "n1", Count: 1}}, info),
				create("c", 3, 4, VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 2}}, info),
				del("gone", VersionVector{{Node: "n1", Count: 2}}),
			}}
			if _, err := dst.mgr.handleBatch("n1", setup); err != nil {
				t.Fatal(err)
			}
			before := dst.dump(t)
			res, err := dst.mgr.applyStored([]batchOp{tc.op}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res, []opResult{tc.res}) {
				t.Errorf("result = %v, want %v", res, tc.res)
			}
			if got := delta(before, dst.dump(t)); got != tc.delta {
				t.Errorf("state change:\n%s\nrecorded:\n%s", got, tc.delta)
			}
		})
	}
}

// applyStored applies ops at the replica as a received batch does: their
// record changes are stored in one write after the apply.
func (m *Manager) applyStored(ops []batchOp, res []opResult) ([]opResult, error) {
	res, records, err := m.applyOps(ops, res, nil, nil)
	return res, errors.Join(err, m.store.Write(records))
}
