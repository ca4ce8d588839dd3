package reconcile

import (
	"context"
	"testing"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
)

// TestBusinessOperationsDuringReconciliation demonstrates §3.3/§5.2: it is
// not feasible to block the system for business operations until the whole
// reconciliation process is finished — operations on unthreatened objects
// continue in parallel while the reconciliation handler is still working.
func TestBusinessOperationsDuringReconciliation(t *testing.T) {
	c := setupFlightScenario(t, constraint.ReconciliationInstructions{})
	n1 := c.Node(0)
	// A second, unthreatened flight.
	if err := n1.Create("Flight", "f2", object.State{"seats": int64(100), "sold": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Heal()

	handlerEntered := make(chan struct{})
	releaseHandler := make(chan struct{})
	reconcileDone := make(chan error, 1)

	go func() {
		_, err := Run(context.Background(), n1, []transport.NodeID{"n2"}, Handlers{
			ReplicaResolver: mergeSold,
			ConstraintHandler: func(th threat.Threat, meta constraint.Meta) bool {
				close(handlerEntered)
				<-releaseHandler // a human operator taking their time (§4.4)
				e, err := n1.Registry.Get(th.ContextID)
				if err != nil {
					return false
				}
				if excess := e.GetInt("sold") - e.GetInt("seats"); excess > 0 {
					if _, err := n1.Invoke(th.ContextID, "Rebook", excess); err != nil {
						return false
					}
				}
				return true
			},
		})
		reconcileDone <- err
	}()

	select {
	case <-handlerEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("reconciliation never reached the handler")
	}

	// Reconciliation is mid-flight; business on the unthreatened flight
	// must proceed.
	for i := 0; i < 5; i++ {
		if _, err := n1.Invoke("f2", "SellTickets", int64(1)); err != nil {
			t.Fatalf("parallel business op %d: %v", i, err)
		}
	}
	e2, _ := n1.Registry.Get("f2")
	if e2.GetInt("sold") != 5 {
		t.Fatalf("parallel sales = %d", e2.GetInt("sold"))
	}

	close(releaseHandler)
	if err := <-reconcileDone; err != nil {
		t.Fatal(err)
	}
	if n1.Threats.Len() != 0 {
		t.Fatalf("threats left = %d", n1.Threats.Len())
	}
}

// TestRemovalsAnnouncedBeforeTheHandlerWaits: the pass tells its peers of the
// threat identities it dropped in one message, not one each — and must not
// sit on that message while application code runs. f0 was sold in one
// partition only, so its threat is re-evaluated first (identities sort) and
// found satisfied; f1 is overbooked and parks the pass in the handler. While
// the operator takes their time, n2 has already dropped f0's threat and still
// holds f1's.
func TestRemovalsAnnouncedBeforeTheHandlerWaits(t *testing.T) {
	c, err := node.NewCluster(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(flightSchema())
		if err := n.DeployConstraints([]constraint.Configured{ticketConstraint(constraint.ReconciliationInstructions{})}); err != nil {
			t.Fatal(err)
		}
	}
	n1, n2 := c.Node(0), c.Node(1)
	for _, id := range []object.ID{"f0", "f1"} {
		if err := n1.Create("Flight", id, object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
			t.Fatal(err)
		}
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	for _, sale := range []struct {
		n  *node.Node
		id object.ID
		k  int64
	}{{n1, "f0", 5}, {n1, "f1", 7}, {n2, "f1", 8}} {
		if _, err := sale.n.Invoke(sale.id, "SellTickets", sale.k); err != nil {
			t.Fatal(err)
		}
	}
	c.Heal()
	satisfied := threat.Threat{Constraint: "TicketConstraint", ContextID: "f0"}.Identity()
	violated := threat.Threat{Constraint: "TicketConstraint", ContextID: "f1"}.Identity()

	handlerEntered := make(chan struct{})
	releaseHandler := make(chan struct{})
	reconcileDone := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), n1, []transport.NodeID{"n2"}, Handlers{
			ReplicaResolver: mergeSold,
			ConstraintHandler: func(th threat.Threat, meta constraint.Meta) bool {
				close(handlerEntered)
				<-releaseHandler
				return false // deferred: the operator cleans up later
			},
		})
		reconcileDone <- err
	}()
	select {
	case <-handlerEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("reconciliation never reached the handler")
	}
	if got := n2.Threats.Identities(); len(got) != 1 || got[0] != violated {
		t.Errorf("n2 holds %q while the handler is parked, want only %q: %q is gone on n1 (%q)",
			got, violated, satisfied, n1.Threats.Identities())
	}
	close(releaseHandler)
	if err := <-reconcileDone; err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if got := n.Threats.Identities(); len(got) != 1 || got[0] != violated {
			t.Errorf("%s after the pass holds %q, want the deferred %q", n.ID, got, violated)
		}
	}
}
