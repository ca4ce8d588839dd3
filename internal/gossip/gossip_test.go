package gossip_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dedisys/internal/gossip"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/transport"
)

func regSchema() *object.Schema {
	s := object.NewSchema("Reg")
	s.Define("SetValue", func(e *object.Entity, args []any) (any, error) {
		e.Set("value", args[0])
		return nil, nil
	})
	s.Define("Value", func(e *object.Entity, args []any) (any, error) {
		return e.GetInt("value"), nil
	})
	return s
}

func newGossipCluster(t *testing.T, size int, manual bool, extra ...node.ClusterOption) *node.Cluster {
	t.Helper()
	opts := append([]node.ClusterOption{func(o *node.Options) {
		o.RepoCache = true
		o.DisableCCM = true
		o.Gossip = &gossip.Config{Manual: manual, Interval: 2 * time.Millisecond, Fanout: 2}
	}}, extra...)
	c, err := node.NewCluster(size, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for _, n := range c.Nodes {
		n.RegisterSchema(regSchema())
	}
	return c
}

// runRounds drives one synchronous gossip round on every node, in node
// order, `rounds` times. Deterministic: exchanges run sequentially.
func runRounds(c *node.Cluster, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, n := range c.Nodes {
			_, _ = n.Gossip.RunRound(context.Background())
		}
	}
}

// converged reports whether every replica of every object holds the same
// snapshot and version vector.
func converged(c *node.Cluster, ids []object.ID) error {
	for _, id := range ids {
		var refState object.State
		var refVV any
		first := true
		for _, n := range c.Nodes {
			if c.Ring != nil && !n.Repl.HasLocalReplica(id) {
				continue
			}
			e, err := n.Registry.Get(id)
			if err != nil {
				return fmt.Errorf("node %s lost %s: %w", n.ID, id, err)
			}
			vv, err := n.Repl.VersionVector(id)
			if err != nil {
				return fmt.Errorf("node %s vv of %s: %w", n.ID, id, err)
			}
			if first {
				refState, refVV, first = e.Snapshot(), vv, false
				continue
			}
			if !reflect.DeepEqual(e.Snapshot(), refState) {
				return fmt.Errorf("%s state diverged on %s: %v vs %v", id, n.ID, e.Snapshot(), refState)
			}
			if !reflect.DeepEqual(vv, refVV) {
				return fmt.Errorf("%s vv diverged on %s: %v vs %v", id, n.ID, vv, refVV)
			}
		}
	}
	return nil
}

// counterSum sums a per-node metric across the cluster.
func counterSum(c *node.Cluster, name string) int64 {
	var total int64
	for _, n := range c.Nodes {
		total += c.Obs.Counter(string(n.ID) + "." + name).Load()
	}
	return total
}

// Gossip alone — no reconcile.Run anywhere — must converge a 2-partition
// heal with concurrent writes on both sides. This test runs under -race in
// CI along with the rest of the suite.
func TestGossipConvergesPartitionHealWithoutReconcile(t *testing.T) {
	c := newGossipCluster(t, 4, true)
	var ids []object.ID
	for i := 0; i < 6; i++ {
		id := object.ID(fmt.Sprintf("o%d", i))
		home := c.Nodes[i%4]
		if err := home.Create("Reg", id, object.State{"value": int64(0)}, c.AllReplicas(home.ID)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3", "n4"})
	// Writes on both sides; P4 keeps both partitions writable, so the sides
	// genuinely diverge (including write-write conflicts on shared objects).
	for i, id := range ids {
		if _, err := c.Node(i%2).Invoke(id, "SetValue", int64(100+i)); err != nil {
			t.Fatalf("left write %s: %v", id, err)
		}
		if _, err := c.Node(2+i%2).Invoke(id, "SetValue", int64(200+i)); err != nil {
			t.Fatalf("right write %s: %v", id, err)
		}
	}
	c.Heal()

	const maxRounds = 12
	roundsUsed := -1
	for r := 1; r <= maxRounds; r++ {
		runRounds(c, 1)
		if converged(c, ids) == nil {
			roundsUsed = r
			break
		}
	}
	if roundsUsed < 0 {
		t.Fatalf("not converged after %d rounds: %v", maxRounds, converged(c, ids))
	}
	t.Logf("converged in %d rounds", roundsUsed)

	// Steady state: in-sync rounds exchange digests only. Records stop
	// moving entirely while digest bytes keep accruing.
	pulled, pushed := counterSum(c, "gossip.deltas_pulled"), counterSum(c, "gossip.pushed")
	digestBefore := counterSum(c, "gossip.digest_bytes")
	runRounds(c, 3)
	if d := counterSum(c, "gossip.deltas_pulled") - pulled; d != 0 {
		t.Fatalf("steady-state rounds pulled %d records", d)
	}
	if d := counterSum(c, "gossip.pushed") - pushed; d != 0 {
		t.Fatalf("steady-state rounds pushed %d records", d)
	}
	if counterSum(c, "gossip.digest_bytes") == digestBefore {
		t.Fatal("steady-state rounds shipped no digests")
	}
	if counterSum(c, "gossip.insync") == 0 {
		t.Fatal("no in-sync exchanges recorded")
	}
}

// Deletions must travel through digests: a tombstone created while a node
// was isolated removes the object there after heal, and tombstone knowledge
// itself converges (no resurrection through later exchanges).
func TestGossipPropagatesTombstones(t *testing.T) {
	c := newGossipCluster(t, 3, true)
	n1 := c.Node(0)
	if err := n1.Create("Reg", "dead", object.State{"value": int64(1)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	if err := n1.Create("Reg", "alive", object.State{"value": int64(2)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	// n3 writes the doomed object in isolation; the other side deletes it.
	if _, err := c.Node(2).Invoke("dead", "SetValue", int64(99)); err != nil {
		t.Fatal(err)
	}
	if err := n1.Delete("dead"); err != nil {
		t.Fatal(err)
	}
	c.Heal()
	runRounds(c, 6)
	for _, n := range c.Nodes {
		if _, err := n.Registry.Get("dead"); err == nil {
			t.Fatalf("node %s resurrected a deleted object", n.ID)
		}
		if got := n.Repl.TombstoneCount(); got != 1 {
			t.Fatalf("node %s tombstones = %d, want 1", n.ID, got)
		}
	}
	if err := converged(c, []object.ID{"alive"}); err != nil {
		t.Fatal(err)
	}
}

// Under sharded placement gossip stays group-scoped: peers are co-group
// members only, and a heal converges every group without cross-group record
// traffic.
func TestGossipShardedPeersAndConvergence(t *testing.T) {
	c := newGossipCluster(t, 8, true, func(o *node.Options) {
		o.Groups = 4
		o.ReplicationFactor = 3
	})
	for _, n := range c.Nodes {
		peers := n.Gossip.Peers()
		member := c.Ring.MemberGroups(n.ID)
		if len(member) == 0 {
			// Outside every replica group: hosts nothing, gossips with no one.
			if len(peers) != 0 {
				t.Fatalf("groupless node %s has gossip peers %v", n.ID, peers)
			}
			continue
		}
		if len(peers) == 0 || len(peers) >= 7 {
			t.Fatalf("node %s gossip peers = %v, want a proper co-group subset", n.ID, peers)
		}
		groups := make(map[int]bool)
		for _, grp := range member {
			groups[grp] = true
		}
		for _, p := range peers {
			shared := false
			for _, grp := range c.Ring.MemberGroups(p) {
				if groups[grp] {
					shared = true
				}
			}
			if !shared {
				t.Fatalf("node %s gossips with non-co-group peer %s", n.ID, p)
			}
		}
	}

	var ids []object.ID
	for i := 0; i < 12; i++ {
		id := object.ID(fmt.Sprintf("s%d", i))
		_, replicas := c.Ring.Place(id)
		home := c.ByID(replicas[0])
		if err := home.Create("Reg", id, object.State{"value": int64(0)}, c.AllReplicas(home.ID)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	half := c.IDs()[:4]
	rest := c.IDs()[4:]
	c.Partition(half, rest)
	for i, id := range ids {
		_, replicas := c.Ring.Place(id)
		// A write from the replica-side coordinator of whichever partition
		// can reach it; unreachable coordinators are expected.
		_, _ = c.ByID(replicas[0]).Invoke(id, "SetValue", int64(1000+i))
	}
	c.Heal()
	var err error
	for r := 0; r < 16; r++ {
		runRounds(c, 1)
		if err = converged(c, ids); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("sharded cluster not converged: %v", err)
	}
}

// The background loop mode must keep a continuously written cluster
// converging without explicit rounds — and shut down cleanly. Exercises the
// loop under -race.
func TestGossipBackgroundLoop(t *testing.T) {
	c := newGossipCluster(t, 3, false)
	n1 := c.Node(0)
	if err := n1.Create("Reg", "bg", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2", "n3"})
	if _, err := n1.Invoke("bg", "SetValue", int64(41)); err != nil {
		t.Fatal(err)
	}
	c.Heal()
	// Entity state is only observable at quiescence (the suite-wide
	// discipline): let the loops run, then stop them — Stop joins the loop
	// goroutines, ordering their writes before the convergence check.
	time.Sleep(500 * time.Millisecond)
	c.Stop() // idempotent with the t.Cleanup stop
	if err := converged(c, []object.ID{"bg"}); err != nil {
		t.Fatalf("background gossip did not converge: %v", err)
	}
}

// A delta merge's push-backs leave like a reconciliation pass's repairs: the
// initiator pulls the K records its digest disagreed on, finds it dominates
// all of them, and answers with one repl.batch of K ops — not K one-op ones.
func TestGossipDeltaMergePushesBackOneBatch(t *testing.T) {
	c := newGossipCluster(t, 2, true)
	var ids []object.ID
	for i := 0; i < 5; i++ {
		id := object.ID(fmt.Sprintf("o%d", i))
		if err := c.Node(0).Create("Reg", id, object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	for i, id := range ids {
		if _, err := c.Node(0).Invoke(id, "SetValue", int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Heal()
	var mu sync.Mutex
	kinds := make(map[string]int)
	c.Net.SetDrop(func(_, _ transport.NodeID, kind string) bool {
		mu.Lock()
		kinds[kind]++
		mu.Unlock()
		return false
	})
	if _, err := c.Node(0).Gossip.RunRound(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Net.SetDrop(nil)
	if err := converged(c, ids); err != nil {
		t.Fatalf("one round from the dominating side: %v", err)
	}
	if kinds[gossip.MsgPull] != 1 || kinds["repl.batch"] != 1 {
		t.Fatalf("the round sent %v, want one %s and one repl.batch for the %d records it dominated", kinds, gossip.MsgPull, len(ids))
	}
}
