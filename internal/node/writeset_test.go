package node

import (
	"errors"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/replication"
)

// counterSchema is a class whose one write method can mutate and then fail.
func counterSchema() *object.Schema {
	s := object.NewSchema("Counter")
	s.DefineKind("SetThenFail", object.Write, func(e *object.Entity, args []any) (any, error) {
		e.Set("value", args[0])
		return nil, errors.New("counter: failed after the write")
	})
	return s
}

func newCounterCluster(t *testing.T) *Cluster {
	t.Helper()
	c := newFlightCluster(t, 3)
	for _, n := range c.Nodes {
		n.RegisterSchema(counterSchema())
	}
	if err := c.Node(0).Create("Counter", "c1", object.State{"value": int64(1)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	return c
}

// expectAgreement checks the committed state of c1 everywhere it lives: the
// entity and the stored record on every replica, and vectors that are equal
// across replicas and strictly above the one before the transaction.
func expectAgreement(t *testing.T, c *Cluster, want int64, before replication.VersionVector) {
	t.Helper()
	coordVV, err := c.Node(0).Repl.VersionVector("c1")
	if err != nil {
		t.Fatal(err)
	}
	if cmp, ok := coordVV.Compare(before); !ok || cmp <= 0 {
		t.Errorf("coordinator vector %v does not dominate the pre-transaction vector %v", coordVV, before)
	}
	for _, n := range c.Nodes {
		e, err := n.Registry.Get("c1")
		if err != nil {
			t.Fatal(err)
		}
		if got := e.GetInt("value"); got != want {
			t.Errorf("%s holds value %d, want %d", n.ID, got, want)
		}
		vv, err := n.Repl.VersionVector("c1")
		if err != nil {
			t.Fatal(err)
		}
		if cmp, ok := vv.Compare(coordVV); !ok || cmp != 0 {
			t.Errorf("%s vector %v, coordinator %v", n.ID, vv, coordVV)
		}
		var stored replication.Record
		if err := n.Store.Get("replica-meta", "c1", &stored); err != nil {
			t.Fatal(err)
		}
		if value, _ := stored.State.Get("value"); value != want {
			t.Errorf("%s replica-meta/c1 = %+v, want value %d", n.ID, stored, want)
		}
	}
	expectRecords(t, c, "c1")
}

// TestDeleteThenCreateSameTx: one transaction deletes an object and creates
// it again under the same ID. The write set holds one entry for the ID and
// its last record, the create, decides what commits: every replica and the
// store hold the new entity, under a vector that continues the old one.
func TestDeleteThenCreateSameTx(t *testing.T) {
	c := newCounterCluster(t)
	defer c.Stop()
	n1 := c.Node(0)
	before, err := n1.Repl.VersionVector("c1")
	if err != nil {
		t.Fatal(err)
	}
	txn := n1.Begin()
	if err := n1.DeleteTx(txn, "c1"); err != nil {
		t.Fatal(err)
	}
	if err := n1.CreateTx(txn, "Counter", "c1", object.State{"value": int64(2)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	expectAgreement(t, c, 2, before)
}

// TestFailedWriteInCommittedTxStaysConsistent: a write method mutates the
// entity and then returns an error, and the caller commits its transaction
// anyway. The undo record dispatch took before the method ran is the write
// mark, so the commit persists and ships what memory holds.
func TestFailedWriteInCommittedTxStaysConsistent(t *testing.T) {
	c := newCounterCluster(t)
	defer c.Stop()
	n1 := c.Node(0)
	before, err := n1.Repl.VersionVector("c1")
	if err != nil {
		t.Fatal(err)
	}
	txn := n1.Begin()
	if _, err := n1.InvokeTx(txn, "c1", "SetThenFail", int64(7)); err == nil {
		t.Fatal("SetThenFail returned no error")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	expectAgreement(t, c, 7, before)
}
