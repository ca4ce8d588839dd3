package node_test

// A write is routed to the object's (temporary) primary, which propagates it
// to every reachable backup (§4.3). The node that forwarded the write is one
// of those backups and waits on the invocation's reply, so the primary's
// commit leaves it out of its round and hands its batch back in the reply,
// which the forwarding node applies before its invocation returns.

import (
	"context"
	"testing"

	"dedisys/internal/chaos"
	"dedisys/internal/group"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/reconcile"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
)

// expectConverged fails unless the nodes hold one state and one vector of id.
func expectConverged(t *testing.T, what string, id object.ID, nodes ...*node.Node) {
	t.Helper()
	if bad := chaos.CheckConverged(&node.Cluster{Nodes: nodes}, []object.ID{id}); len(bad) > 0 {
		t.Fatalf("%s: %v", what, bad)
	}
}

func expectValue(t *testing.T, n *node.Node, id object.ID, want int64) {
	t.Helper()
	e, err := n.Registry.Get(id)
	if err != nil {
		t.Fatalf("%s: %v", n.ID, err)
	}
	if got := e.GetInt("value"); got != want {
		t.Fatalf("%s holds %s = %d, want %d", n.ID, id, got, want)
	}
}

// TestForwardedWriteRidesTheReply is the paper's setting: four nodes under
// P4, cut into {n1,n2} | {n3,n4}, and n2 writing an object whose home is n1.
// A first-threat write costs one message, the node.invoke: when it returns,
// n2 holds the write, its vector and the threat. Healed, a write that clears
// the threat costs the node.invoke and one repl.batch to each of the other two
// nodes, and no node keeps the threat.
func TestForwardedWriteRidesTheReply(t *testing.T) {
	c := newRegCluster(t, 4)
	n1, n2 := c.Node(0), c.Node(1)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	const ident = "NonNegative|o1"
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3", "n4"})
	tally := tapSends(t, c.Net)
	invoke := map[string]int{"node.invoke": 1}
	batch := map[string]int{"repl.batch": 1}

	setValue(t, n2, "o1", 1)
	expectSends(t, "a degraded forwarded first-threat write", tally.take(), sends{"n1": invoke})
	expectValue(t, n2, "o1", 1)
	expectConverged(t, "after the degraded forwarded write", "o1", n1, n2)
	if !holds(n1, ident) || !holds(n2, ident) {
		t.Fatalf("after the first-threat write n1 holds %v, n2 %v; want both", n1.Threats.All(), n2.Threats.All())
	}

	c.Heal()
	setValue(t, n2, "o1", 2)
	expectSends(t, "a healthy forwarded write that clears the threat", tally.take(), sends{"n1": invoke, "n3": batch, "n4": batch})
	expectConverged(t, "after the healthy forwarded write", "o1", c.Nodes...)
	for _, n := range c.Nodes {
		if n.Threats.Len() != 0 {
			t.Fatalf("%s holds %v after the clearing write returned", n.ID, n.Threats.All())
		}
	}
}

// TestForwardedReplyIsOneStoreWrite: the requester of a forwarded write
// stores the batch its reply carried in one write, as a replica stores a
// received repl.batch, and the write sends no repl.batch at all.
func TestForwardedReplyIsOneStoreWrite(t *testing.T) {
	c := newRegCluster(t, 2)
	n1, n2 := c.Node(0), c.Node(1)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	tally := tapSends(t, c.Net)
	writes, records := metric(t, c, "n2.persistence.writes"), metric(t, c, "n2.persistence.records")
	setValue(t, n2, "o1", 1)
	expectSends(t, "a forwarded write", tally.take(), sends{"n1": {"node.invoke": 1}})
	if got := metric(t, c, "n2.persistence.writes") - writes; got != 1 {
		t.Errorf("the requester made %d store writes, want 1", got)
	}
	if got := metric(t, c, "n2.persistence.records") - records; got != 1 {
		t.Errorf("the requester stored %d records, want 1", got)
	}
	expectValue(t, n2, "o1", 1)
	expectConverged(t, "after the forwarded write", "o1", n1, n2)
}

// TestForwardedQuorumWriteWaitsForItsQuorum: of two replicas a majority quorum
// is both, so when the requester is the only other replica its ack is the one
// the commit needs, and the commit's round must reach it: the reply lands
// after the commit returned, if at all. Here the reply is discarded, and the
// requester holds the write anyway.
func TestForwardedQuorumWriteWaitsForItsQuorum(t *testing.T) {
	c := newRegCluster(t, 2, func(o *node.Options) { o.Protocol = replication.Quorum{} })
	n1, n2 := c.Node(0), c.Node(1)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	tally := tapSends(t, c.Net)
	if _, err := n1.HandleForwarded("n2", "o1", "SetValue", int64(1)); err != nil {
		t.Fatal(err)
	}
	expectSends(t, "a forwarded quorum write whose reply is lost", tally.take(), sends{"n2": {"repl.batch": 1}})
	expectConverged(t, "after the quorum commit returned", "o1", n1, n2)

	setValue(t, n2, "o1", 2)
	expectSends(t, "a forwarded quorum write", tally.take(), sends{"n1": {"node.invoke": 1}, "n2": {"repl.batch": 1}})
	expectValue(t, n2, "o1", 2)
}

// fixedView is a view source whose one view the test sets: views no topology
// oracle produces, such as two nodes that disagree about a third.
type fixedView struct {
	self    transport.NodeID
	members []transport.NodeID
}

func (v fixedView) Self() transport.NodeID                   { return v.self }
func (v fixedView) Current() (int64, []transport.NodeID)     { return 1, v.members }
func (v fixedView) OnChange(func(int64, []transport.NodeID)) {}

// TestTwiceForwardedWriteReachesEveryReplica: n3 does not see n1, the home,
// so it elects n2 temporary primary and forwards its write there; n2 sees n1
// and forwards it on. n1's requester is n2, which gets the batch in the reply;
// n3, the first caller, is a destination of the round.
func TestTwiceForwardedWriteReachesEveryReplica(t *testing.T) {
	net := transport.NewNetwork()
	all := []transport.NodeID{"n1", "n2", "n3"}
	for _, id := range all {
		if err := net.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	gms := group.NewMembership(net, group.WithDetector(
		fixedView{"n1", all}, fixedView{"n2", all}, fixedView{"n3", []transport.NodeID{"n2", "n3"}}))
	var nodes []*node.Node
	for _, id := range all {
		n, err := node.New(node.Options{ID: id, Net: net, GMS: gms})
		if err != nil {
			t.Fatal(err)
		}
		n.RegisterSchema(chaos.Schema())
		nodes = append(nodes, n)
	}
	n1, n3 := nodes[0], nodes[2]
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, replication.NewInfo("n1", all)); err != nil {
		t.Fatal(err)
	}
	tally := tapSends(t, net)
	setValue(t, n3, "o1", 1)
	expectSends(t, "a write forwarded twice", tally.take(), sends{
		"n2": {"node.invoke": 1},
		"n1": {"node.invoke": 1},
		"n3": {"repl.batch": 1},
	})
	expectValue(t, n3, "o1", 1)
	expectConverged(t, "after the write forwarded twice", "o1", nodes...)
}

// TestLostForwardReplyIsRepaired: a reply that never reaches the forwarding
// node leaves its replica stale, as a lost repl.batch would; one
// reconciliation pass repairs it.
func TestLostForwardReplyIsRepaired(t *testing.T) {
	c := newRegCluster(t, 3)
	n1, n2, n3 := c.Node(0), c.Node(1), c.Node(2)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.HandleForwarded("n2", "o1", "SetValue", int64(7)); err != nil {
		t.Fatal(err)
	}
	expectValue(t, n2, "o1", 0)
	expectValue(t, n3, "o1", 7)
	if _, err := reconcile.Run(context.Background(), n1, []transport.NodeID{"n2", "n3"}, reconcile.Handlers{}); err != nil {
		t.Fatal(err)
	}
	expectConverged(t, "after one reconciliation pass", "o1", c.Nodes...)
	expectValue(t, n2, "o1", 7)
}
