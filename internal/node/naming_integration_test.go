package node_test

import (
	"context"
	"errors"
	"testing"

	"dedisys/internal/naming"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/reconcile"
	"dedisys/internal/transport"
)

// TestNamingIntegration drives the naming service through the node stack:
// bindings replicate, lookups resolve to invocable objects, and partitioned
// bindings synchronise during reconciliation.
func TestNamingIntegration(t *testing.T) {
	c, err := node.NewCluster(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	schema := object.NewSchema("Doc")
	schema.Define("SetBody", func(e *object.Entity, args []any) (any, error) {
		e.Set("body", args[0])
		return nil, nil
	})
	schema.Define("Body", func(e *object.Entity, args []any) (any, error) {
		return e.GetString("body"), nil
	})
	for _, n := range c.Nodes {
		n.RegisterSchema(schema)
	}
	n1, n2 := c.Node(0), c.Node(1)
	if err := n1.Create("Doc", "doc-42", object.State{"body": "hello"}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	if err := n1.Naming.Bind("docs/readme", "doc-42"); err != nil {
		t.Fatal(err)
	}

	// The binding replicated: node 2 resolves and invokes through it.
	id, err := n2.Naming.Lookup("docs/readme")
	if err != nil {
		t.Fatal(err)
	}
	body, err := n2.Invoke(id, "Body")
	if err != nil || body != "hello" {
		t.Fatalf("resolved invoke = %v, %v", body, err)
	}

	// Bindings created during a partition synchronise at reconciliation.
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	if err := n2.Naming.Bind("docs/other", "doc-42"); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Naming.Lookup("docs/other"); !errors.Is(err, naming.ErrNotBound) {
		t.Fatal("binding crossed the partition")
	}
	c.Heal()
	if _, err := reconcile.Run(context.Background(), n1, []transport.NodeID{"n2"}, reconcile.Handlers{}); err != nil {
		t.Fatal(err)
	}
	if id, err := n1.Naming.Lookup("docs/other"); err != nil || id != "doc-42" {
		t.Fatalf("post-reconcile lookup = %s, %v", id, err)
	}
}

// TestInvokeNamed: the JNDI-style lookup-then-call of EJB clients invokes
// the bound object, and an unbound name fails the lookup.
func TestInvokeNamed(t *testing.T) {
	c, err := node.NewCluster(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	schema := object.NewSchema("Doc")
	schema.Define("Body", func(e *object.Entity, args []any) (any, error) {
		return e.GetString("body"), nil
	})
	n := c.Node(0)
	n.RegisterSchema(schema)
	if err := n.Create("Doc", "d1", object.State{"body": "x"}, c.AllReplicas(n.ID)); err != nil {
		t.Fatal(err)
	}
	if err := n.Naming.Bind("docs/d1", "d1"); err != nil {
		t.Fatal(err)
	}
	id, err := n.Naming.Lookup("docs/d1")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := n.Invoke(id, "Body"); err != nil || got != "x" {
		t.Fatalf("Invoke(Lookup) = %v, %v", got, err)
	}
	if _, err := n.Naming.Lookup("docs/none"); !errors.Is(err, naming.ErrNotBound) {
		t.Fatalf("unbound err = %v", err)
	}
}
