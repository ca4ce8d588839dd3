package node_test

// Lossy-link tests: the paper's link model allows message loss without full
// partitions (§1.1). A lost update propagation leaves a backup behind; the
// version vectors detect the missed update and reconciliation repairs it.

import (
	"context"
	"sync/atomic"
	"testing"

	"dedisys/internal/chaos"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/reconcile"
	"dedisys/internal/transport"
)

// isCommitPropagation matches commit-time update propagation: the
// transaction batch, the only wire format of a replica write.
func isCommitPropagation(kind string) bool { return kind == "repl.batch" }

func TestLostPropagationRepairedByReconciliation(t *testing.T) {
	c, err := node.NewCluster(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(chaos.Schema())
	}
	n1 := c.Node(0)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}

	// Drop exactly one commit propagation towards n3 (batched commits ship
	// updates as "repl.batch" messages).
	var dropsLeft atomic.Int32
	dropsLeft.Store(1)
	c.Net.SetDrop(func(from, to transport.NodeID, kind string) bool {
		if to == "n3" && isCommitPropagation(kind) && dropsLeft.Load() > 0 {
			dropsLeft.Add(-1)
			return true
		}
		return false
	})
	if _, err := n1.Invoke("o1", "SetValue", int64(7)); err != nil {
		t.Fatal(err)
	}
	c.Net.SetDrop(nil)

	// n2 got the update, n3 missed it.
	e2, _ := c.Node(1).Registry.Get("o1")
	e3, _ := c.Node(2).Registry.Get("o1")
	if e2.GetInt("value") != 7 {
		t.Fatalf("n2 value = %d", e2.GetInt("value"))
	}
	if e3.GetInt("value") != 0 {
		t.Fatalf("n3 should have missed the update, value = %d", e3.GetInt("value"))
	}
	if got := c.Obs.Snapshot().Counters["transport.dropped"]; got != 1 {
		t.Fatalf("dropped = %d", got)
	}

	// The version vectors expose the miss; reconciliation pushes the state.
	report, err := reconcile.Run(context.Background(), n1, []transport.NodeID{"n3"}, reconcile.Handlers{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Replica.Pushed != 1 {
		t.Fatalf("pushed = %d", report.Replica.Pushed)
	}
	e3, _ = c.Node(2).Registry.Get("o1")
	if e3.GetInt("value") != 7 {
		t.Fatalf("n3 not repaired: %d", e3.GetInt("value"))
	}
}

func TestLossyWritesNeverDivergeSilently(t *testing.T) {
	// Drop every third apply; after a reconciliation sweep all replicas must
	// agree despite the losses.
	c, err := node.NewCluster(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(chaos.Schema())
	}
	n1 := c.Node(0)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	var counter atomic.Int64
	c.Net.SetDrop(func(from, to transport.NodeID, kind string) bool {
		if !isCommitPropagation(kind) {
			return false
		}
		return counter.Add(1)%3 == 0
	})
	for i := 0; i < 20; i++ {
		if _, err := n1.Invoke("o1", "SetValue", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.SetDrop(nil)
	if _, err := reconcile.Run(context.Background(), n1, []transport.NodeID{"n2", "n3"}, reconcile.Handlers{}); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		e, err := n.Registry.Get("o1")
		if err != nil || e.GetInt("value") != 19 {
			t.Fatalf("node %s value = %v (%v)", n.ID, e.GetInt("value"), err)
		}
	}
}
