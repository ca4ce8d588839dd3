package node

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/placement"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
)

// newShardCluster builds a flight cluster with the object space sharded
// across groups replica groups of rf nodes each.
func newShardCluster(t *testing.T, size, groups, rf int, opts ...ClusterOption) *Cluster {
	t.Helper()
	all := append([]ClusterOption{func(o *Options) {
		o.Groups = groups
		o.ReplicationFactor = rf
	}}, opts...)
	return newFlightCluster(t, size, all...)
}

// shardID returns a deterministic object ID placed in the given group.
func shardID(t *testing.T, ring *placement.Ring, g int) object.ID {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		id := object.ID(fmt.Sprintf("flight-%d", i))
		if ring.GroupOf(id) == g {
			return id
		}
	}
	t.Fatalf("no object id hashes into group %d", g)
	return ""
}

// TestGroupsOneReproducesFullReplication: the G=1, RF=all configuration is
// the seed's full replication expressed through the ring — every node holds
// every object and writes behave exactly as before.
func TestGroupsOneReproducesFullReplication(t *testing.T) {
	c := newShardCluster(t, 3, 1, 0)
	if c.Ring == nil || c.Ring.Groups() != 1 || c.Ring.ReplicationFactor() != 3 {
		t.Fatalf("ring = %+v", c.Ring)
	}
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(2).Invoke("f1", "SellTickets", int64(5)); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		e, err := n.Registry.Get("f1")
		if err != nil {
			t.Fatalf("%s: %v", n.ID, err)
		}
		if e.GetInt("sold") != 5 {
			t.Fatalf("%s: sold = %d", n.ID, e.GetInt("sold"))
		}
	}
	info, err := n1.Repl.Info("f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Replicas) != 3 {
		t.Fatalf("replicas = %v, want all 3 nodes", info.Replicas)
	}
}

// TestShardedInvokeAcrossGroups: creates land only on their group's members,
// writes from any node route to the group, reads from outside the group are
// served remotely, and named invocations resolve through the group-tagged
// naming service.
func TestShardedInvokeAcrossGroups(t *testing.T) {
	c := newShardCluster(t, 6, 2, 3)
	ring := c.Ring
	oid := shardID(t, ring, 0)
	_, replicas := ring.Place(oid)
	home := replicas[0]

	if err := c.ByID(home).Create("Flight", oid, object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas(home)); err != nil {
		t.Fatal(err)
	}
	wantInfo := replication.NewInfo(home, replicas)
	for _, n := range c.Nodes {
		if got := n.Registry.Has(oid); got != wantInfo.HasReplica(n.ID) {
			t.Fatalf("%s: has replica = %v, want %v", n.ID, got, wantInfo.HasReplica(n.ID))
		}
	}

	// A write invoked anywhere routes to the group and applies on every
	// member; a read invoked outside the group is fetched remotely.
	for _, n := range c.Nodes {
		if _, err := n.Invoke(oid, "SellTickets", int64(1)); err != nil {
			t.Fatalf("write via %s: %v", n.ID, err)
		}
	}
	want := int64(len(c.Nodes))
	for _, r := range replicas {
		e, err := c.ByID(r).Registry.Get(oid)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if e.GetInt("sold") != want {
			t.Fatalf("%s: sold = %d, want %d", r, e.GetInt("sold"), want)
		}
	}
	for _, n := range c.Nodes {
		got, err := n.Invoke(oid, "Sold")
		if err != nil {
			t.Fatalf("read via %s: %v", n.ID, err)
		}
		if got.(int64) != want {
			t.Fatalf("read via %s = %v, want %d", n.ID, got, want)
		}
	}

	// Named invocation from a node outside the group.
	var outsider *Node
	for _, n := range c.Nodes {
		if len(ring.MemberGroups(n.ID)) == 0 {
			outsider = n
			break
		}
	}
	if outsider == nil {
		t.Skip("ring layout leaves no node outside every group")
	}
	if err := c.ByID(home).Naming.Bind("flights/X", oid); err != nil {
		t.Fatal(err)
	}
	id, err := outsider.Naming.Lookup("flights/X")
	if err != nil || id != oid {
		t.Fatalf("lookup on outsider = %s, %v; want %s", id, err, oid)
	}
	got, err := outsider.Invoke(id, "Sold")
	if err != nil || got.(int64) != want {
		t.Fatalf("named read on outsider = %v, %v", got, err)
	}
}

// TestShardedDeleteFromNonMember: a delete invoked outside the object's
// group routes to the coordinator and removes the object from every member.
func TestShardedDeleteFromNonMember(t *testing.T) {
	c := newShardCluster(t, 6, 2, 3)
	ring := c.Ring
	oid := shardID(t, ring, 0)
	_, replicas := ring.Place(oid)
	home := replicas[0]
	if err := c.ByID(home).Create("Flight", oid, object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas(home)); err != nil {
		t.Fatal(err)
	}
	info := replication.NewInfo(home, replicas)
	var outsider *Node
	for _, n := range c.Nodes {
		if !info.HasReplica(n.ID) {
			outsider = n
			break
		}
	}
	if outsider == nil {
		t.Skip("ring layout leaves no node outside the group")
	}
	if err := outsider.Delete(oid); err != nil {
		t.Fatalf("remote delete via %s: %v", outsider.ID, err)
	}
	for _, m := range replicas {
		if c.ByID(m).Registry.Has(oid) {
			t.Fatalf("%s still holds %s after remote delete", m, oid)
		}
	}
}

// TestShardedPartitionKeepsIntactGroupWritable is the tentpole behaviour at
// the node layer: a partition that isolates one replica group degrades only
// that group — the other group keeps committing under a majority protocol.
func TestShardedPartitionKeepsIntactGroupWritable(t *testing.T) {
	c := newShardCluster(t, 6, 2, 3, func(o *Options) {
		o.Protocol = replication.PrimaryPartition{}
	})
	ring := c.Ring
	ga := ring.GroupReplicas(0)
	oa := shardID(t, ring, 0)
	ob := shardID(t, ring, 1)
	if err := c.ByID(ga[0]).Create("Flight", oa, object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas(ga[0])); err != nil {
		t.Fatal(err)
	}
	gb := ring.GroupReplicas(1)
	if err := c.ByID(gb[0]).Create("Flight", ob, object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas(gb[0])); err != nil {
		t.Fatal(err)
	}

	inA := func(id transport.NodeID) bool {
		for _, n := range ga {
			if n == id {
				return true
			}
		}
		return false
	}
	var sideA, sideB []transport.NodeID
	for _, id := range c.IDs() {
		if inA(id) {
			sideA = append(sideA, id)
		} else {
			sideB = append(sideB, id)
		}
	}
	c.Partition(sideA, sideB)

	// Group 0 is intact on side A: all its members commit.
	for _, m := range ga {
		if _, err := c.ByID(m).Invoke(oa, "SellTickets", int64(1)); err != nil {
			t.Fatalf("intact group write via %s: %v", m, err)
		}
	}
	// Group 1 straddles the cut: minority-side members are rejected,
	// majority-side members commit.
	var minority, majority transport.NodeID
	for _, m := range gb {
		var same int
		for _, o := range gb {
			if inA(o) == inA(m) {
				same++
			}
		}
		if 2*same > len(gb) {
			majority = m
		} else {
			minority = m
		}
	}
	if minority == "" || majority == "" {
		t.Skip("partition does not split group 1")
	}
	if _, err := c.ByID(minority).Invoke(ob, "SellTickets", int64(1)); !errors.Is(err, replication.ErrWriteNotAllowed) {
		t.Fatalf("minority write via %s: %v, want ErrWriteNotAllowed", minority, err)
	}
	if _, err := c.ByID(majority).Invoke(ob, "SellTickets", int64(1)); err != nil {
		t.Fatalf("majority write via %s: %v", majority, err)
	}

	// Heal and reconcile: the straggler of group 1 catches up; the pulls
	// move only group-resident objects.
	c.Heal()
	for _, m := range gb {
		peers := make([]transport.NodeID, 0, len(gb)-1)
		for _, o := range gb {
			if o != m {
				peers = append(peers, o)
			}
		}
		if _, err := c.ByID(m).Repl.ReconcileWith(context.Background(), peers, nil); err != nil {
			t.Fatalf("reconcile on %s: %v", m, err)
		}
	}
	for _, m := range gb {
		e, err := c.ByID(m).Registry.Get(ob)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if e.GetInt("sold") != 1 {
			t.Fatalf("%s: sold = %d after reconcile, want 1", m, e.GetInt("sold"))
		}
	}
}

// TestCrossGroupTransaction: one transaction updating objects of two
// different replica groups commits atomically through the existing 2PC —
// the coordinating node must be home of both objects.
func TestCrossGroupTransaction(t *testing.T) {
	c := newShardCluster(t, 6, 2, 3)
	ring := c.Ring
	var bridge *Node // a node serving both groups can be home to both objects
	for _, n := range c.Nodes {
		if len(ring.MemberGroups(n.ID)) == 2 {
			bridge = n
			break
		}
	}
	if bridge == nil {
		t.Skip("ring layout has no node serving both groups")
	}
	oa := shardID(t, ring, 0)
	ob := shardID(t, ring, 1)
	for _, oid := range []object.ID{oa, ob} {
		if err := bridge.Create("Flight", oid, object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas(bridge.ID)); err != nil {
			t.Fatal(err)
		}
		info, err := bridge.Repl.Info(oid)
		if err != nil {
			t.Fatal(err)
		}
		if info.Home != bridge.ID {
			t.Fatalf("home of %s = %s, want bridge %s", oid, info.Home, bridge.ID)
		}
	}

	txn := bridge.Begin()
	if _, err := bridge.InvokeTx(txn, oa, "SellTickets", int64(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := bridge.InvokeTx(txn, ob, "SellTickets", int64(4)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, m := range ring.GroupReplicas(0) {
		if e, err := c.ByID(m).Registry.Get(oa); err != nil || e.GetInt("sold") != 3 {
			t.Fatalf("%s: group-0 object = %v, %v", m, e, err)
		}
	}
	for _, m := range ring.GroupReplicas(1) {
		if e, err := c.ByID(m).Registry.Get(ob); err != nil || e.GetInt("sold") != 4 {
			t.Fatalf("%s: group-1 object = %v, %v", m, e, err)
		}
	}
}

// TestCrossGroupQuorumIsPerObject: a quorum is per object, not per batch. One
// transaction on the bridge node writes an object of each group while the
// links to group 1's other two replicas are 50 ms slow and group 0's answer at
// once. The commit must wait for a group-1 backup — an ack counts toward an
// object only from a destination whose batch carried it — where a single count
// over the union of destinations was satisfied by group 0 alone and returned
// with no backup holding the group-1 write.
func TestCrossGroupQuorumIsPerObject(t *testing.T) {
	const slow = 50 * time.Millisecond
	c := newShardCluster(t, 6, 2, 3, func(o *Options) { o.Protocol = replication.Quorum{} })
	ring := c.Ring
	var bridge *Node
	for _, n := range c.Nodes {
		if len(ring.MemberGroups(n.ID)) == 2 {
			bridge = n
			break
		}
	}
	if bridge == nil {
		t.Skip("ring layout has no node serving both groups")
	}
	var held []transport.NodeID // group 1's replicas besides the bridge
	for _, m := range ring.GroupReplicas(1) {
		if m != bridge.ID {
			held = append(held, m)
		}
	}
	fast := 0
	for _, m := range ring.GroupReplicas(0) {
		if m != bridge.ID && !slices.Contains(held, m) {
			fast++
		}
	}
	if fast == 0 {
		t.Skip("ring layout leaves group 0 no replica of its own")
	}
	oa := shardID(t, ring, 0)
	ob := shardID(t, ring, 1)
	for _, oid := range []object.ID{oa, ob} {
		if err := bridge.Create("Flight", oid, object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas(bridge.ID)); err != nil {
			t.Fatal(err)
		}
	}
	bridge.Repl.WaitPropagation()
	c.Net.SetLatency(func(_, to transport.NodeID, _ string) time.Duration {
		if slices.Contains(held, to) {
			return slow
		}
		return 0
	})
	defer c.Net.SetLatency(nil)

	txn := bridge.Begin()
	if _, err := bridge.InvokeTx(txn, oa, "SellTickets", int64(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := bridge.InvokeTx(txn, ob, "SellTickets", int64(4)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	holders := 0
	for _, m := range held {
		if e, err := c.ByID(m).Registry.Get(ob); err == nil && e.GetInt("sold") == 4 {
			holders++
		}
	}
	bridge.Repl.WaitPropagation()
	if elapsed < slow || holders == 0 {
		t.Fatalf("commit returned after %v with %d group-1 backups holding %s; want >= %v and at least 1", elapsed, holders, ob, slow)
	}
}

// TestReferenceContextCostsOneFetch: a hard invariant whose context object is
// a reference into the other replica group costs one repl.fetch per
// validation — the preparer names the object and the CCMgr resolves it once.
// Resolved through a lookup closure and again to record the access, it cost
// two.
func TestReferenceContextCostsOneFetch(t *testing.T) {
	c := newShardCluster(t, 6, 2, 3)
	ring := c.Ring
	group1 := ring.GroupReplicas(1)
	var flight object.ID
	var home transport.NodeID // serves group 0 only: the report is remote to it
	for i := 0; i < 10_000 && flight == ""; i++ {
		id := object.ID(fmt.Sprintf("flight-%d", i))
		if g, replicas := ring.Place(id); g == 0 && !slices.Contains(group1, replicas[0]) {
			flight, home = id, replicas[0]
		}
	}
	if flight == "" {
		t.Skip("ring layout has no group-0 home outside group 1")
	}
	report := shardID(t, ring, 1)
	_, reportReplicas := ring.Place(report)

	deployTicket(t, c, constraint.Configured{
		Meta: constraint.Meta{
			Name: "ReportOnFile", Type: constraint.HardInvariant,
			Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
			NeedsContext: true, ContextClass: "Flight", SkipOnCreate: true,
			Affected: []constraint.AffectedMethod{
				{Class: "Flight", Method: "SellTickets", Prep: constraint.ReferenceIsContext{Attr: "report"}},
			},
		},
		Impl: constraint.Func(func(ctx constraint.Context) (bool, error) {
			return ctx.ContextObject() != nil && ctx.ContextObject().ID() == report, nil
		}),
	})
	reportHome := c.ByID(reportReplicas[0])
	if err := reportHome.Create("Flight", report, object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas(reportHome.ID)); err != nil {
		t.Fatal(err)
	}
	n := c.ByID(home)
	if err := n.Create("Flight", flight, object.State{"seats": int64(80), "sold": int64(0), "report": report}, c.AllReplicas(home)); err != nil {
		t.Fatal(err)
	}
	reportHome.Repl.WaitPropagation()
	n.Repl.WaitPropagation()

	var fetches atomic.Int32
	c.Net.SetDrop(func(_, _ transport.NodeID, kind string) bool {
		if kind == "repl.fetch" {
			fetches.Add(1)
		}
		return false
	})
	defer c.Net.SetDrop(nil)
	validations := string(n.ID) + ".core.validations"
	before := counter(t, c.Obs, validations)
	if _, err := n.Invoke(flight, "SellTickets", int64(1)); err != nil {
		t.Fatal(err)
	}
	if v := counter(t, c.Obs, validations) - before; v != 1 {
		t.Fatalf("validations = %d, want 1", v)
	}
	if got := fetches.Load(); got != 1 {
		t.Fatalf("one validation sent %d repl.fetch, want 1", got)
	}
}
