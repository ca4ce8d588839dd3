package node_test

import (
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/core"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// TestDeclarativeConstraintEndToEnd drives a declaratively specified
// constraint (§7.1 future work: compiled from an OCL-style expression)
// through the full middleware: healthy enforcement, and degraded-mode
// threat detection via the navigation hop's staleness.
func TestDeclarativeConstraintEndToEnd(t *testing.T) {
	c, err := node.NewCluster(2, nil, func(o *node.Options) { o.RepoCache = true })
	if err != nil {
		t.Fatal(err)
	}
	schema := object.NewSchema("Flight")
	schema.Define("SellTickets", func(e *object.Entity, args []any) (any, error) {
		e.Set("sold", e.GetInt("sold")+args[0].(int64))
		return e.GetInt("sold"), nil
	})
	ticket := constraint.Configured{
		Meta: constraint.Meta{
			Name: "DeclarativeTicket", Type: constraint.HardInvariant,
			Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
			NeedsContext: true, ContextClass: "Flight",
			Affected: []constraint.AffectedMethod{
				{Class: "Flight", Method: "SellTickets", Prep: constraint.CalledObjectIsContext{}},
			},
		},
		Impl: constraint.MustFromExpr("sold <= seats"),
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(schema)
		if err := n.DeployConstraints([]constraint.Configured{ticket}); err != nil {
			t.Fatal(err)
		}
	}
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"sold": int64(79), "seats": int64(80)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Invoke("f1", "SellTickets", int64(1)); err != nil {
		t.Fatalf("valid sale: %v", err)
	}
	if _, err := n1.Invoke("f1", "SellTickets", int64(1)); !core.IsViolation(err) {
		t.Fatalf("overbooking err = %v", err)
	}

	// Degraded mode: the declarative constraint's validation runs on a
	// possibly stale replica, producing an accepted threat like any
	// hand-written constraint.
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	e, _ := n1.Registry.Get("f1")
	e.Restore(object.AttrsOf(object.State{"sold": int64(0), "seats": int64(80)}), e.Version())
	if _, err := n1.Invoke("f1", "SellTickets", int64(5)); err != nil {
		t.Fatalf("degraded sale: %v", err)
	}
	if n1.Threats.Len() != 1 {
		t.Fatalf("threats = %d", n1.Threats.Len())
	}
}
