package replication

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/placement"
	"dedisys/internal/transport"
)

// shardRing builds the placement ring the sharded harness tests share:
// 6 nodes, 2 groups, 3 replicas per group. With this layout some nodes serve
// one group, at least one serves both, and at least one serves none — the
// helper functions below locate them dynamically so the tests stay valid if
// the ring hash ever changes.
func shardRing(t *testing.T, n, groups, rf int) (*placement.Ring, []transport.NodeID) {
	t.Helper()
	var ids []transport.NodeID
	for i := 1; i <= n; i++ {
		ids = append(ids, transport.NodeID(fmt.Sprintf("n%d", i)))
	}
	ring, err := placement.New(ids, placement.Config{Groups: groups, ReplicationFactor: rf})
	if err != nil {
		t.Fatal(err)
	}
	return ring, ids
}

// idInGroup returns a deterministic object ID that hashes into the group.
func idInGroup(t *testing.T, ring *placement.Ring, g int) object.ID {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		id := object.ID(fmt.Sprintf("shard-%d", i))
		if ring.GroupOf(id) == g {
			return id
		}
	}
	t.Fatalf("no object id hashes into group %d", g)
	return ""
}

// nodeOutsideAllGroups returns a node replicating no group at all.
func nodeOutsideAllGroups(t *testing.T, ring *placement.Ring, ids []transport.NodeID) transport.NodeID {
	t.Helper()
	for _, id := range ids {
		if len(ring.MemberGroups(id)) == 0 {
			return id
		}
	}
	t.Skip("ring layout leaves no node outside every group")
	return ""
}

func TestNewInfoNormalizes(t *testing.T) {
	info := NewInfo("n2", []transport.NodeID{"n3", "n1", "n2", "n1", "n3"})
	if info.Home != "n2" {
		t.Fatalf("home = %s, want n2", info.Home)
	}
	want := []transport.NodeID{"n1", "n2", "n3"}
	if !reflect.DeepEqual(info.Replicas, want) {
		t.Fatalf("replicas = %v, want %v", info.Replicas, want)
	}
	// A non-hosting home is a deliberate choice; NewInfo must not inject it.
	outside := NewInfo("n9", []transport.NodeID{"n1"})
	if outside.HasReplica("n9") {
		t.Fatal("NewInfo added the home to the replica set")
	}
}

// TestCreateNormalizesUnsortedReplicas is the regression test for the
// previously unenforced "Replicas is sorted by construction" assumption:
// a caller handing Create an unsorted, duplicated replica slice must end up
// with identical normalized metadata on every node, because temporary-primary
// election picks reachableReplicas[0] and all nodes must elect the same one.
func TestCreateNormalizesUnsortedReplicas(t *testing.T) {
	h := newHarness(t, 3, PrimaryPerPartition{})
	env := h.node("n2")
	txn := env.txm.Begin()
	e := object.New("Flight", "f-unsorted", object.State{"sold": int64(1)})
	unsorted := Info{Home: "n2", Replicas: []transport.NodeID{"n3", "n1", "n2", "n1"}}
	if err := env.mgr.Create(txn, e, unsorted); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []transport.NodeID{"n1", "n2", "n3"}
	for _, id := range h.ids {
		info, err := h.node(id).mgr.Info("f-unsorted")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if info.Home != "n2" {
			t.Fatalf("%s: home = %s, want n2", id, info.Home)
		}
		if !reflect.DeepEqual(info.Replicas, want) {
			t.Fatalf("%s: replicas = %v, want %v", id, info.Replicas, want)
		}
	}
}

func TestPlacedCreateDerivesRingInfo(t *testing.T) {
	ring, _ := shardRing(t, 6, 2, 3)
	h := newHarness(t, 6, PrimaryPerPartition{}, func(cfg *Config) { cfg.Placement = ring })
	oid := idInGroup(t, ring, 0)
	_, replicas := ring.Place(oid)
	member := replicas[1] // a group member that is not the walk's primary

	// Created by a group member: the creator stays home (seed behaviour).
	h.create(t, member, "Flight", oid, object.State{"sold": int64(70)})
	wantInfo := NewInfo(member, replicas)
	for _, id := range h.ids {
		env := h.node(id)
		if got := env.reg.Has(oid); got != wantInfo.HasReplica(id) {
			t.Fatalf("%s: registry.Has = %v, want %v", id, got, wantInfo.HasReplica(id))
		}
		if !wantInfo.HasReplica(id) {
			continue
		}
		info, err := env.mgr.Info(oid)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !reflect.DeepEqual(info, wantInfo) {
			t.Fatalf("%s: info = %+v, want %+v", id, info, wantInfo)
		}
	}

	// Created by a node outside the group: home falls back to the group's
	// first-preference node and the creator keeps no registry copy.
	outsider := nodeOutsideAllGroups(t, ring, h.ids)
	oid2 := idInGroup(t, ring, 1)
	_, replicas2 := ring.Place(oid2)
	h.create(t, outsider, "Flight", oid2, object.State{"sold": int64(5)})
	if h.node(outsider).reg.Has(oid2) {
		t.Fatalf("outsider %s kept a registry copy of %s", outsider, oid2)
	}
	info, err := h.node(replicas2[0]).mgr.Info(oid2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Home != replicas2[0] {
		t.Fatalf("home = %s, want group primary %s", info.Home, replicas2[0])
	}
}

func TestPlacedLookupAndRoutingFromNonMember(t *testing.T) {
	ring, _ := shardRing(t, 6, 2, 3)
	h := newHarness(t, 6, PrimaryPerPartition{}, func(cfg *Config) { cfg.Placement = ring })
	oid := idInGroup(t, ring, 0)
	_, replicas := ring.Place(oid)
	h.create(t, replicas[0], "Flight", oid, object.State{"sold": int64(70)})

	outsider := nodeOutsideAllGroups(t, ring, h.ids)
	env := h.node(outsider)
	// The outsider never saw the create, yet the ring routes the read.
	if _, err := env.mgr.Info(oid); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("Info on outsider = %v, want ErrUnknownObject", err)
	}
	route, err := env.mgr.RouteInfo(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(route.Replicas, NewInfo("", replicas).Replicas) {
		t.Fatalf("RouteInfo replicas = %v, want %v", route.Replicas, replicas)
	}
	e, st, err := env.mgr.Lookup(context.Background(), oid)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Get("sold"); got != int64(70) {
		t.Fatalf("remote read = %v, want 70", got)
	}
	if st.PossiblyStale {
		t.Fatal("healthy sharded read reported possibly stale")
	}

	// A group member without metadata has genuinely never seen the object.
	if _, _, err := h.node(replicas[0]).mgr.Lookup(context.Background(), "shard-missing-0"); err == nil {
		t.Fatal("lookup of nonexistent object succeeded")
	}
}

// TestGroupLocalWriteDecisions is the tentpole behaviour: a partition that
// splits the cluster but leaves a replica group intact does not degrade that
// group — majority arithmetic runs against group membership, not the full
// node set.
func TestGroupLocalWriteDecisions(t *testing.T) {
	ring, _ := shardRing(t, 6, 2, 3)
	h := newHarness(t, 6, PrimaryPartition{}, func(cfg *Config) { cfg.Placement = ring })
	ga := ring.GroupReplicas(0)
	gb := ring.GroupReplicas(1)
	if reflect.DeepEqual(NewInfo("", ga).Replicas, NewInfo("", gb).Replicas) {
		t.Skip("ring layout put both groups on the same nodes")
	}
	oa := idInGroup(t, ring, 0)
	ob := idInGroup(t, ring, 1)
	h.create(t, ga[0], "Flight", oa, object.State{"sold": int64(0)})
	h.create(t, gb[0], "Flight", ob, object.State{"sold": int64(0)})

	// Isolate group 0's nodes from everyone else.
	inA := func(id transport.NodeID) bool {
		for _, n := range ga {
			if n == id {
				return true
			}
		}
		return false
	}
	var sideA, sideB []transport.NodeID
	for _, id := range h.ids {
		if inA(id) {
			sideA = append(sideA, id)
		} else {
			sideB = append(sideB, id)
		}
	}
	h.net.Partition(sideA, sideB)

	// Group 0 is intact: every member writes, nothing is degraded or stale.
	for i, m := range ga {
		h.write(t, m, oa, "sold", int64(i+1))
		_, st, err := h.node(m).mgr.Lookup(context.Background(), oa)
		if err != nil {
			t.Fatal(err)
		}
		if st.PossiblyStale {
			t.Fatalf("intact group read on %s reported possibly stale", m)
		}
	}

	// Group 1 straddles the cut: members on the side with the group majority
	// write, the minority side is rejected.
	for _, m := range gb {
		onA := inA(m)
		var groupOnSide int
		for _, n := range gb {
			if inA(n) == onA {
				groupOnSide++
			}
		}
		err := h.tryWrite(m, ob, "sold", int64(99))
		if 2*groupOnSide > len(gb) {
			if err != nil {
				t.Fatalf("group-majority member %s rejected: %v", m, err)
			}
		} else if !errors.Is(err, ErrWriteNotAllowed) {
			t.Fatalf("group-minority member %s: err = %v, want ErrWriteNotAllowed", m, err)
		}
	}
}

// TestShardedReconcileFiltersByGroup: state pulls return only the records
// the pulling peer replicates, and a heal between nodes of different groups
// moves no object state.
func TestShardedReconcileFiltersByGroup(t *testing.T) {
	ring, _ := shardRing(t, 6, 2, 3)
	h := newHarness(t, 6, PrimaryPerPartition{}, func(cfg *Config) { cfg.Placement = ring })
	for i := 0; i < 10; i++ {
		oid := object.ID(fmt.Sprintf("shard-%d", i))
		_, replicas := ring.Place(oid)
		h.create(t, replicas[0], "Flight", oid, object.State{"sold": int64(i)})
	}
	var pureA, pureB transport.NodeID
	for _, id := range h.ids {
		groups := ring.MemberGroups(id)
		if len(groups) != 1 {
			continue
		}
		if groups[0] == 0 && pureA == "" {
			pureA = id
		}
		if groups[0] == 1 && pureB == "" {
			pureB = id
		}
	}
	if pureA == "" || pureB == "" {
		t.Skip("ring layout has no single-group nodes")
	}

	// Pull filtering: records are scoped to what the peer replicates.
	if recs := h.node(pureA).mgr.RecordsFor(pureB); len(recs) != 0 {
		t.Fatalf("%s served %d records to foreign-group %s", pureA, len(recs), pureB)
	}
	for _, rec := range h.node(pureA).mgr.Records() {
		if g := ring.GroupOf(rec.ID); g != 0 {
			t.Fatalf("%s holds record %s of group %d", pureA, rec.ID, g)
		}
	}

	// A cross-group reconcile pass is a no-op: nothing pulled, adopted,
	// pushed or created.
	before := h.node(pureB).reg.Len()
	report, err := h.node(pureA).mgr.ReconcileWith(context.Background(), []transport.NodeID{pureB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Adopted+report.Pushed+report.Created+report.Conflicts != 0 {
		t.Fatalf("cross-group reconcile moved state: %+v", report)
	}
	if after := h.node(pureB).reg.Len(); after != before {
		t.Fatalf("foreign peer registry changed: %d -> %d", before, after)
	}
}

// TestSharedReplicaSlicesAreGuarded pins the sharing rules of the write path:
// in the healthy steady state viewFor and reachableReplicas hand out the
// object's own replica slice, so whatever a caller does to the result — append
// to it, overwrite the appended copy — must leave Info.Replicas as recorded,
// and a commit after the abuse must still reach the whole group.
func TestSharedReplicaSlicesAreGuarded(t *testing.T) {
	ring, _ := shardRing(t, 6, 2, 3)
	h := newHarness(t, 6, PrimaryPerPartition{}, func(cfg *Config) { cfg.Placement = ring })
	oid := idInGroup(t, ring, 0)
	_, replicas := ring.Place(oid)
	home := replicas[0]
	h.create(t, home, "Flight", oid, object.State{"sold": int64(1)})
	mgr := h.node(home).mgr
	info, err := mgr.Info(oid)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]transport.NodeID(nil), info.Replicas...)

	view := mgr.viewFor(info)
	if len(view.Members) != len(want) || cap(view.Members) != len(want) {
		t.Fatalf("filtered view members len %d cap %d, want both %d", len(view.Members), cap(view.Members), len(want))
	}
	reach := info.reachableReplicas(view)
	if cap(reach) != len(want) {
		t.Fatalf("reachable replicas cap %d, want %d", cap(reach), len(want))
	}
	for _, shared := range [][]transport.NodeID{view.Members, reach} {
		grown := append(shared, "intruder")
		grown[0] = "overwritten"
	}
	again, _ := mgr.Info(oid)
	if !reflect.DeepEqual(again.Replicas, want) {
		t.Fatalf("replicas after appending to shared views = %v, want %v", again.Replicas, want)
	}

	h.write(t, home, oid, "sold", int64(2))
	for _, r := range want {
		e, err := h.node(r).reg.Get(oid)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if e.GetInt("sold") != 2 {
			t.Fatalf("%s: sold = %d, want 2", r, e.GetInt("sold"))
		}
	}

	// Degraded: the filtered view holds only replicas, so the reachable list
	// is the view's own, sized for the result and apart from the replica slice.
	var rest []transport.NodeID
	for _, id := range h.ids {
		if id != want[len(want)-1] {
			rest = append(rest, id)
		}
	}
	h.net.Partition(rest, want[len(want)-1:])
	view = mgr.viewFor(info)
	reach = info.reachableReplicas(view)
	if !reflect.DeepEqual(reach, want[:len(want)-1]) || !reflect.DeepEqual(view.Members, reach) {
		t.Fatalf("degraded view %v, reachable %v, want %v", view.Members, reach, want[:len(want)-1])
	}
	if &reach[0] == &info.Replicas[0] || &view.Members[0] == &info.Replicas[0] {
		t.Fatal("degraded result shares the replica slice")
	}
}

// TestOutsiderReCreatesDeletedObject: an object deleted in its group and
// created again by a node outside the group, which never saw the deletion,
// is live on every replica. The outsider's create shares no event with the
// group's tombstone — another incarnation of the ID — so it is created under
// the merged vector. A replica that had lost the tombstone (a restart) keeps
// the object when the tombstone reaches it, and one reconciliation brings it
// the merged vector.
func TestOutsiderReCreatesDeletedObject(t *testing.T) {
	ring, _ := shardRing(t, 6, 2, 3)
	h := newHarness(t, 6, PrimaryPerPartition{}, func(cfg *Config) { cfg.Placement = ring })
	oid := idInGroup(t, ring, 0)
	_, replicas := ring.Place(oid)
	h.create(t, replicas[0], "Flight", oid, object.State{"sold": int64(70)})
	deleter := h.node(replicas[0])
	txn := deleter.txm.Begin()
	if err := deleter.mgr.Delete(txn, oid); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	deleter.mgr.mu.Lock()
	tomb := deleter.mgr.tombstones[oid]
	deleter.mgr.mu.Unlock()
	restarted := h.node(replicas[2]).mgr
	restarted.mu.Lock()
	delete(restarted.tombstones, oid)
	restarted.mu.Unlock()

	outsider := nodeOutsideAllGroups(t, ring, h.ids)
	h.create(t, outsider, "Flight", oid, object.State{"sold": int64(9)})
	if owed := restarted.AdoptTombstone(oid, tomb); !owed {
		t.Fatal("the re-created replica is not owed to the tombstone's sender")
	}
	if _, err := restarted.ReconcileWith(context.Background(), replicas[:1], nil); err != nil {
		t.Fatal(err)
	}
	var want VersionVector
	for _, id := range replicas {
		env := h.node(id)
		e, err := env.reg.Get(oid)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := e.GetInt("sold"); got != 9 {
			t.Fatalf("%s: sold = %d, want 9", id, got)
		}
		if got := env.mgr.batchSkipped.Load(); got != 0 {
			t.Fatalf("%s skipped %d ops", id, got)
		}
		env.mgr.mu.Lock()
		vv, held := env.mgr.meta[oid].vv, env.mgr.tombstones[oid]
		env.mgr.mu.Unlock()
		if held != nil {
			t.Fatalf("%s keeps the tombstone %v beside the live replica", id, held)
		}
		if want == nil {
			want = vv
		}
		if cmp, ok := vv.Compare(tomb); !ok || cmp <= 0 || !reflect.DeepEqual(vv, want) {
			t.Fatalf("%s holds %v, want %v above the tombstone %v", id, vv, want, tomb)
		}
	}
}
