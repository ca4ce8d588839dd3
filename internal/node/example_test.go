package node_test

import (
	"errors"
	"fmt"

	"dedisys/internal/apps/flight"
	"dedisys/internal/constraint"
	"dedisys/internal/core"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// The complete adaptive-dependability loop on a two-node cluster: healthy
// enforcement, degraded-mode threat acceptance, and the resulting stored
// threat awaiting reconciliation.
func Example() {
	cluster, err := node.NewCluster(2, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	ticket := flight.TicketConstraint(constraint.HardInvariant, constraint.Tradeable, constraint.Uncheckable)
	for _, n := range cluster.Nodes {
		n.RegisterSchema(flight.Schema())
		if err := n.DeployConstraints([]constraint.Configured{ticket}); err != nil {
			fmt.Println(err)
			return
		}
	}
	n := cluster.Node(0)
	if err := n.Create(flight.Class, "LH1234", flight.New(80, 79), cluster.AllReplicas(n.ID)); err != nil {
		fmt.Println(err)
		return
	}

	// Healthy: the 81st ticket is rejected reliably.
	if _, err := n.Invoke("LH1234", "SellTickets", int64(1)); err != nil {
		fmt.Println("unexpected:", err)
	}
	_, err = n.Invoke("LH1234", "SellTickets", int64(1))
	fmt.Println("healthy overbooking rejected:", errors.Is(err, core.ErrConstraintViolated))

	// Degraded: validation on the stale replica is only possibly reliable;
	// the configured tolerance accepts the threat and the sale proceeds.
	cluster.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	e, _ := n.Registry.Get("LH1234")
	e.Restore(object.AttrsOf(flight.New(80, 0)), e.Version()) // fresh plane in this partition
	if _, err := n.Invoke("LH1234", "SellTickets", int64(2)); err != nil {
		fmt.Println("unexpected:", err)
	}
	fmt.Println("threats awaiting reconciliation:", n.Threats.Len())
	// Output:
	// healthy overbooking rejected: true
	// threats awaiting reconciliation: 1
}
