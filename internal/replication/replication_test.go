package replication

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dedisys/internal/group"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/persistence"
	"dedisys/internal/transport"
	"dedisys/internal/tx"
)

// harness wires N nodes with replication managers over one network.
type harness struct {
	net   *transport.Network
	gms   *group.Membership
	nodes map[transport.NodeID]*nodeEnv
	ids   []transport.NodeID
}

type nodeEnv struct {
	id    transport.NodeID
	reg   *object.Registry
	store *persistence.Store
	obs   *obs.Observer // the store's counters
	txm   *tx.Manager
	mgr   *Manager
}

// writes returns how many store writes of how many records the node made.
func (env *nodeEnv) writes() (writes, records int64) {
	c := env.obs.Snapshot().Counters
	return c["persistence.writes"], c["persistence.records"]
}

func newHarness(t *testing.T, n int, protocol Protocol, cfgMods ...func(*Config)) *harness {
	t.Helper()
	h := &harness{
		net:   transport.NewNetwork(),
		nodes: make(map[transport.NodeID]*nodeEnv),
	}
	for i := 0; i < n; i++ {
		id := transport.NodeID(fmt.Sprintf("n%d", i+1))
		h.ids = append(h.ids, id)
		if err := h.net.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	h.gms = group.NewMembership(h.net)
	for _, id := range h.ids {
		env := &nodeEnv{
			id:  id,
			reg: object.NewRegistry(),
			obs: obs.New(),
			txm: tx.NewManager(),
		}
		env.store = persistence.NewStore(persistence.WithObserver(env.obs))
		cfg := Config{
			Self:     id,
			Net:      h.net,
			GMS:      h.gms,
			Registry: env.reg,
			Store:    env.store,
			Protocol: protocol,
		}
		for _, mod := range cfgMods {
			mod(&cfg)
		}
		mgr, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		env.mgr = mgr
		env.txm.RegisterResource(mgr)
		h.nodes[id] = env
	}
	return h
}

func (h *harness) node(id transport.NodeID) *nodeEnv { return h.nodes[id] }

// create makes a replicated entity on all nodes, coordinated by node id.
func (h *harness) create(t *testing.T, coord transport.NodeID, class string, oid object.ID, attrs object.State) {
	t.Helper()
	env := h.node(coord)
	txn := env.txm.Begin()
	e := object.New(class, oid, attrs)
	if err := env.mgr.Create(txn, e, Info{Home: coord, Replicas: h.ids}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// write runs a single-attribute update on the coordinator node.
func (h *harness) write(t *testing.T, coord transport.NodeID, oid object.ID, attr string, v any) {
	t.Helper()
	if err := h.tryWrite(coord, oid, attr, v); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) tryWrite(coord transport.NodeID, oid object.ID, attr string, v any) error {
	env := h.node(coord)
	txn := env.txm.Begin()
	if err := env.mgr.CheckWrite(oid); err != nil {
		_ = txn.Rollback()
		return err
	}
	e, err := env.reg.Get(oid)
	if err != nil {
		_ = txn.Rollback()
		return err
	}
	txn.RecordUpdate(e)
	e.Set(attr, v)
	return txn.Commit()
}

func TestCreatePropagatesToAllNodes(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	for _, id := range h.ids {
		e, err := h.node(id).reg.Get("f1")
		if err != nil {
			t.Fatalf("node %s missing replica: %v", id, err)
		}
		if e.GetInt("sold") != 70 {
			t.Fatalf("node %s state = %d", id, e.GetInt("sold"))
		}
	}
}

func TestWritePropagatesSynchronously(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	h.write(t, "n1", "f1", "sold", int64(77))
	for _, id := range h.ids {
		e, err := h.node(id).reg.Get("f1")
		if err != nil {
			t.Fatal(err)
		}
		if e.GetInt("sold") != 77 {
			t.Fatalf("node %s sold = %d, want 77", id, e.GetInt("sold"))
		}
	}
}

func TestRollbackDoesNotPropagate(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	env := h.node("n1")
	txn := env.txm.Begin()
	e, _ := env.reg.Get("f1")
	txn.RecordUpdate(e)
	e.Set("sold", int64(99))
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if e.GetInt("sold") != 70 {
		t.Fatalf("rollback did not restore: %d", e.GetInt("sold"))
	}
	e2, _ := h.node("n2").reg.Get("f1")
	if e2.GetInt("sold") != 70 {
		t.Fatalf("rolled-back write propagated: %d", e2.GetInt("sold"))
	}
}

func TestDeletePropagates(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", nil)
	env := h.node("n1")
	txn := env.txm.Begin()
	if err := env.mgr.Delete(txn, "f1"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, id := range h.ids {
		if h.node(id).reg.Has("f1") {
			t.Fatalf("node %s still has deleted object", id)
		}
	}
	if _, err := env.mgr.Info("f1"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("Info after delete err = %v", err)
	}
}

func TestLookupStalenessHealthyAndDegraded(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	_, st, err := h.node("n2").mgr.Lookup(context.Background(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	if st.PossiblyStale {
		t.Fatal("healthy lookup reported stale")
	}
	h.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	_, st, err = h.node("n2").mgr.Lookup(context.Background(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	if !st.PossiblyStale {
		t.Fatal("degraded P4 lookup not stale")
	}
	if !h.node("n2").mgr.Degraded() {
		t.Fatal("manager not degraded")
	}
}

func TestEstimatorUsedWhenStale(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	h.node("n1").mgr.SetEstimator(func(id object.ID, v int64) int64 { return v + 4 })
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	_, st, err := h.node("n1").mgr.Lookup(context.Background(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	if st.MissedEstimate() != 4 {
		t.Fatalf("missed estimate = %d", st.MissedEstimate())
	}
}

func TestP4TemporaryPrimaryPerPartition(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2", "n3"})
	// Home partition keeps home as coordinator.
	c, err := h.node("n1").mgr.Coordinator("f1")
	if err != nil || c != "n1" {
		t.Fatalf("n1 coord = %s, %v", c, err)
	}
	// Other partition elects the smallest reachable replica node.
	c, err = h.node("n3").mgr.Coordinator("f1")
	if err != nil || c != "n2" {
		t.Fatalf("n3 coord = %s, %v", c, err)
	}
	// Both partitions may write.
	if err := h.tryWrite("n1", "f1", "sold", int64(71)); err != nil {
		t.Fatalf("partition A write: %v", err)
	}
	if err := h.tryWrite("n2", "f1", "sold", int64(72)); err != nil {
		t.Fatalf("partition B write: %v", err)
	}
	// Writes stayed partition-local.
	eA, _ := h.node("n1").reg.Get("f1")
	eB, _ := h.node("n3").reg.Get("f1")
	if eA.GetInt("sold") != 71 || eB.GetInt("sold") != 72 {
		t.Fatalf("divergence wrong: A=%d B=%d", eA.GetInt("sold"), eB.GetInt("sold"))
	}
}

func TestPrimaryBackupBlocksWithoutPrimary(t *testing.T) {
	h := newHarness(t, 3, PrimaryBackup{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2", "n3"})
	if err := h.tryWrite("n2", "f1", "sold", int64(2)); !errors.Is(err, ErrWriteNotAllowed) {
		t.Fatalf("backup partition write err = %v", err)
	}
	if err := h.tryWrite("n1", "f1", "sold", int64(2)); err != nil {
		t.Fatalf("primary partition write: %v", err)
	}
}

func TestPrimaryPartitionMajorityRule(t *testing.T) {
	h := newHarness(t, 3, PrimaryPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	h.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	if err := h.tryWrite("n1", "f1", "sold", int64(2)); err != nil {
		t.Fatalf("majority write: %v", err)
	}
	if err := h.tryWrite("n3", "f1", "sold", int64(3)); !errors.Is(err, ErrWriteNotAllowed) {
		t.Fatalf("minority write err = %v", err)
	}
}

func TestAdaptiveVotingAllowsSubQuorumButStale(t *testing.T) {
	h := newHarness(t, 3, AdaptiveVoting{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	h.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	// Majority partition: writable, reads reliable.
	if err := h.tryWrite("n1", "f1", "sold", int64(2)); err != nil {
		t.Fatalf("majority write: %v", err)
	}
	if _, st, _ := h.node("n1").mgr.Lookup(context.Background(), "f1"); st.PossiblyStale {
		t.Fatal("majority read should be reliable under voting")
	}
	// Minority partition: writable (adaptive) but stale.
	if err := h.tryWrite("n3", "f1", "sold", int64(3)); err != nil {
		t.Fatalf("minority write: %v", err)
	}
	if _, st, _ := h.node("n3").mgr.Lookup(context.Background(), "f1"); !st.PossiblyStale {
		t.Fatal("minority read should be possibly stale")
	}
}

func TestRemoteFetchWithoutLocalReplica(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	// Object replicated only on n1 and n2.
	env := h.node("n1")
	txn := env.txm.Begin()
	e := object.New("Flight", "f1", object.State{"sold": int64(5)})
	if err := env.mgr.Create(txn, e, Info{Home: "n1", Replicas: []transport.NodeID{"n1", "n2"}}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if h.node("n3").reg.Has("f1") {
		t.Fatal("n3 should not hold a replica")
	}
	// n3 must be able to read the object remotely — but it has no metadata.
	// Register metadata by pulling: in the real system the naming service
	// provides this; here reconciliation shares it.
	if _, err := h.node("n3").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n1"}, nil); err != nil {
		t.Fatal(err)
	}
	got, st, err := h.node("n3").mgr.Lookup(context.Background(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	if got.GetInt("sold") != 5 {
		t.Fatalf("remote read = %d", got.GetInt("sold"))
	}
	if st.PossiblyStale {
		t.Fatal("healthy remote read reported stale")
	}
	// After partitioning n3 away from both replicas the read must fail.
	h.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	if _, _, err := h.node("n3").mgr.Lookup(context.Background(), "f1"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("unreachable read err = %v", err)
	}
}

func TestReconciliationPropagatesMissedUpdates(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	h.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	// Only partition A writes: no conflict, n3 just missed updates.
	h.write(t, "n1", "f1", "sold", int64(77))
	h.net.Heal()
	report, err := h.node("n1").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Pushed != 1 || report.Conflicts != 0 {
		t.Fatalf("report = %+v", report)
	}
	e3, _ := h.node("n3").reg.Get("f1")
	if e3.GetInt("sold") != 77 {
		t.Fatalf("n3 not caught up: %d", e3.GetInt("sold"))
	}
}

func TestReconciliationDetectsAndResolvesConflict(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(70)})
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	h.write(t, "n1", "f1", "sold", int64(77)) // +7 in partition A
	h.write(t, "n2", "f1", "sold", int64(78)) // +8 in partition B
	h.net.Heal()

	var seen *Conflict
	resolver := func(c Conflict) (object.State, error) {
		cc := c
		seen = &cc
		// Application-specific merge: total sold = 70 + 7 + 8 = 85.
		merged := c.Local.Clone()
		merged["sold"] = int64(85)
		return merged, nil
	}
	report, err := h.node("n1").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n2"}, resolver)
	if err != nil {
		t.Fatal(err)
	}
	if report.Conflicts != 1 {
		t.Fatalf("conflicts = %d", report.Conflicts)
	}
	if seen == nil || seen.ID != "f1" {
		t.Fatalf("conflict details = %+v", seen)
	}
	for _, id := range h.ids {
		e, _ := h.node(id).reg.Get("f1")
		if e.GetInt("sold") != 85 {
			t.Fatalf("node %s resolved state = %d", id, e.GetInt("sold"))
		}
	}
	// Version vectors must now agree and dominate both lines.
	vv1, _ := h.node("n1").mgr.VersionVector("f1")
	vv2, _ := h.node("n2").mgr.VersionVector("f1")
	if cmp, ok := vv1.Compare(vv2); !ok || cmp != 0 {
		t.Fatalf("vectors diverged: %v vs %v", vv1, vv2)
	}
}

func TestReconciliationGenericResolverMostUpdates(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(0)})
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	h.write(t, "n1", "f1", "sold", int64(1))
	h.write(t, "n2", "f1", "sold", int64(10))
	h.write(t, "n2", "f1", "sold", int64(11)) // B has more updates
	h.net.Heal()
	if _, err := h.node("n1").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n2"}, nil); err != nil {
		t.Fatal(err)
	}
	e1, _ := h.node("n1").reg.Get("f1")
	if e1.GetInt("sold") != 11 {
		t.Fatalf("most-updates resolution = %d, want 11", e1.GetInt("sold"))
	}
}

func TestReconciliationAdoptsObjectsCreatedElsewhere(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	// n2 creates an object while partitioned; replica set covers both nodes.
	env := h.node("n2")
	txn := env.txm.Begin()
	e := object.New("Flight", "f9", object.State{"sold": int64(3)})
	if err := env.mgr.Create(txn, e, Info{Home: "n2", Replicas: h.ids}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	h.net.Heal()
	report, err := h.node("n1").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Created != 1 {
		t.Fatalf("created = %d", report.Created)
	}
	e1, err := h.node("n1").reg.Get("f9")
	if err != nil || e1.GetInt("sold") != 3 {
		t.Fatalf("adopted object: %v, %v", e1, err)
	}
}

// TestReconciliationRePropagatesDeletes deletes an object in one partition
// while the other keeps writing it. One pass after the heal the deletion has
// won on both sides, and both hold the same tombstone vector — the deletion
// event's, {n1:2}, merged with the peer's live {n1:1,n2:1} — so the next
// exchange finds them in sync.
func TestReconciliationRePropagatesDeletes(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(0)})
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	env := h.node("n1")
	txn := env.txm.Begin()
	if err := env.mgr.Delete(txn, "f1"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	h.write(t, "n2", "f1", "sold", int64(1))
	h.net.Heal()
	if _, err := h.node("n1").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n2"}, nil); err != nil {
		t.Fatal(err)
	}
	if h.node("n2").reg.Has("f1") {
		t.Fatal("delete not re-propagated during reconciliation")
	}
	h1, v1, _ := h.node("n1").held("f1")
	h2, v2, _ := h.node("n2").held("f1")
	if h1 != opDelete || h2 != opDelete {
		t.Fatalf("tombstones: n1 holds %d %v, n2 %d %v", h1, v1, h2, v2)
	}
	if cmp, ok := v1.Compare(v2); !ok || cmp != 0 {
		t.Fatalf("tombstone vectors differ after one pass: n1 %v, n2 %v", v1, v2)
	}
	if want := (VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}); !reflect.DeepEqual(v1, want) {
		t.Fatalf("tombstone vector = %v, want %v", v1, want)
	}
	if report, err := h.node("n2").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n1"}, nil); err != nil || report.InSync != 1 {
		t.Fatalf("the next exchange = %+v, %v; want in sync", report, err)
	}
}

// TestReconciliationPushToDroppedObjectSkipped merges a peer's records after
// the peer dropped one of the objects in the meantime: the push of the
// dominating local state meets the peer's tombstone there, whose concurrent
// deletion wins as it would over a commit-time apply (decide), instead of
// failing the pass midway — the records after it still merge.
func TestReconciliationPushToDroppedObjectSkipped(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	h.create(t, "n1", "Flight", "f2", object.State{"sold": int64(2)})
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	h.write(t, "n1", "f1", "sold", int64(11)) // n1 dominates on f1
	h.write(t, "n2", "f2", "sold", int64(22)) // n2 dominates on f2
	pulled := h.node("n2").records(t, "n1")
	// n2 drops f1 after answering the pull.
	env := h.node("n2")
	txn := env.txm.Begin()
	if err := env.mgr.Delete(txn, "f1"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	h.net.Heal()

	report, err := h.node("n1").merge("n2", pulled)
	if err != nil {
		t.Fatalf("pass aborted: %v", err)
	}
	if report.Pushed != 1 || report.Adopted != 1 {
		t.Fatalf("report = %+v, want 1 pushed, 1 adopted", report)
	}
	if h.node("n2").reg.Has("f1") {
		t.Fatal("skipped push resurrected the dropped object")
	}
	if e, _ := h.node("n1").reg.Get("f2"); e.GetInt("sold") != 22 {
		t.Fatalf("record after the skipped push not merged: f2 = %d, want 22", e.GetInt("sold"))
	}
}

// TestReplicaWritesCrossOnlyAsBatches records every message kind the
// replication service sends through a P4 commit, a quorum commit, a forced
// state install and a heal that meets a conflict, a missed create and a
// tombstone: replica writes cross as repl.batch only, beside the fetch and
// the pull.
func TestReplicaWritesCrossOnlyAsBatches(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]int)
	record := func(_, _ transport.NodeID, kind string) bool {
		mu.Lock()
		seen[kind]++
		mu.Unlock()
		return false
	}
	ctx := context.Background()

	h := newHarness(t, 3, PrimaryPerPartition{})
	h.net.SetDrop(record)
	for _, id := range []object.ID{"f1", "f2"} {
		h.create(t, "n1", "Flight", id, object.State{"sold": int64(0)})
	}
	if err := h.node("n1").mgr.PropagateState(ctx, "f1"); err != nil {
		t.Fatal(err)
	}
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2", "n3"})
	h.write(t, "n1", "f1", "sold", int64(1))
	h.write(t, "n2", "f1", "sold", int64(2)) // conflict
	h.create(t, "n1", "Flight", "f9", nil)   // create n2 and n3 miss
	env := h.node("n1")
	txn := env.txm.Begin()
	if err := env.mgr.Delete(txn, "f2"); err != nil { // tombstone over their live f2
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
	for _, id := range h.ids {
		if n := h.node(id); !n.reg.Has("f9") || n.reg.Has("f2") {
			t.Fatalf("node %s after heal: f9 %v, f2 %v", id, n.reg.Has("f9"), n.reg.Has("f2"))
		}
	}

	q := newHarness(t, 3, Quorum{})
	q.net.SetDrop(record)
	q.create(t, "n1", "Flight", "f1", object.State{"sold": int64(0)})
	q.write(t, "n1", "f1", "sold", int64(1))
	q.node("n1").mgr.WaitPropagation()

	mu.Lock()
	if seen[msgBatch] == 0 || seen[msgPull] == 0 {
		t.Errorf("kinds seen = %v", seen)
	}
	for kind := range seen {
		if kind != msgBatch && kind != msgFetch && kind != msgPull {
			t.Errorf("unexpected kind %q on the wire (%v)", kind, seen)
		}
	}
	mu.Unlock()
}

func TestDegradedHistoryRecording(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{}, func(c *Config) { c.KeepHistory = true })
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(0)})
	mgr := h.node("n1").mgr
	// Healthy writes record no history.
	h.write(t, "n1", "f1", "sold", int64(1))
	if got := mgr.History("f1"); len(got) != 0 {
		t.Fatalf("healthy history = %d entries", len(got))
	}
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	h.write(t, "n1", "f1", "sold", int64(2))
	h.write(t, "n1", "f1", "sold", int64(3))
	hist := mgr.History("f1")
	if len(hist) != 2 {
		t.Fatalf("degraded history = %d entries", len(hist))
	}
	if hist[0].State.Map()["sold"] != int64(2) || hist[1].State.Map()["sold"] != int64(3) {
		t.Fatalf("history states = %v", hist)
	}
	mgr.ClearHistory()
	if got := mgr.History("f1"); len(got) != 0 {
		t.Fatal("ClearHistory left entries")
	}
}

// TestDegradedCommitIsOneStoreWrite: under KeepHistory a degraded write's
// history entry is stored in its commit's one write, beside the replica's
// record, and reads back as the update that installs the entry's state; it
// was a write of its own. Clearing the history is one write, and clearing it
// again, with no table left, none.
func TestDegradedCommitIsOneStoreWrite(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{}, func(c *Config) { c.KeepHistory = true })
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(0)})
	env := h.node("n1")
	h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	w0, r0 := env.writes()
	h.write(t, "n1", "f1", "sold", int64(2))
	if w, r := env.writes(); w-w0 != 1 || r-r0 != 2 {
		t.Fatalf("a degraded commit made %d store writes of %d records, want 1 of 2", w-w0, r-r0)
	}
	hist := env.mgr.History("f1")
	if len(hist) != 1 {
		t.Fatalf("history = %v, want one entry", hist)
	}
	var op batchOp
	if err := env.store.Get(tableHistory, "f1#"+fmt.Sprint(hist[0].Version), &op); err != nil {
		t.Fatal(err)
	}
	if op.Kind != opApply || op.ID != "f1" || op.Version != hist[0].Version || !reflect.DeepEqual(op.VV, hist[0].VV) || !reflect.DeepEqual(op.State.Map(), object.State{"sold": int64(2)}) {
		t.Fatalf("stored history entry %+v, want the update to %+v", op, hist[0])
	}
	w0, _ = env.writes()
	env.mgr.ClearHistory()
	env.mgr.ClearHistory()
	if w, _ := env.writes(); w-w0 != 1 || env.store.Len(tableHistory) != 0 {
		t.Fatalf("clearing the history twice made %d store writes and left %d entries, want 1 and none", w-w0, env.store.Len(tableHistory))
	}
}

func TestVersionVectorCompare(t *testing.T) {
	a := VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}
	b := VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}
	if cmp, ok := a.Compare(b); !ok || cmp != 0 {
		t.Fatalf("equal compare = %d, %v", cmp, ok)
	}
	b = b.Bumped("n2")
	if cmp, ok := a.Compare(b); !ok || cmp != -1 {
		t.Fatalf("dominated compare = %d, %v", cmp, ok)
	}
	if cmp, ok := b.Compare(a); !ok || cmp != 1 {
		t.Fatalf("dominating compare = %d, %v", cmp, ok)
	}
	a = a.Bumped("n1")
	if _, ok := a.Compare(b); ok {
		t.Fatal("concurrent vectors reported comparable")
	}
	a = a.Merged(b)
	if cmp, ok := a.Compare(b); !ok || cmp != 1 {
		t.Fatalf("after merge compare = %d, %v", cmp, ok)
	}
	if a.Total() != 5 {
		t.Fatalf("total = %d", a.Total())
	}
	c := a.Clone()
	c[0].Count++
	if a[0].Count != 3 {
		t.Fatal("clone aliased original")
	}
}

func TestWriteOnOldCoordinatorAfterCrash(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	h.net.Crash("n1")
	// The surviving partition elects n2 as temporary primary.
	c, err := h.node("n2").mgr.Coordinator("f1")
	if err != nil || c != "n2" {
		t.Fatalf("coordinator after crash = %s, %v", c, err)
	}
	if err := h.tryWrite("n2", "f1", "sold", int64(2)); err != nil {
		t.Fatal(err)
	}
	h.net.Recover("n1")
	if _, err := h.node("n2").mgr.ReconcileWith(context.Background(), []transport.NodeID{"n1"}, nil); err != nil {
		t.Fatal(err)
	}
	e1, _ := h.node("n1").reg.Get("f1")
	if e1.GetInt("sold") != 2 {
		t.Fatalf("recovered node state = %d", e1.GetInt("sold"))
	}
}
