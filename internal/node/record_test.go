package node

import (
	"fmt"
	"reflect"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/replication"
)

// heldRecord is what the node holds of the object in memory — its entity's
// class, state and version, its vector and placement — as the
// replication.Record its stored record (table replica-meta, keyed by the
// object ID) reads back as: empty lists nil, as the wire decoder has them.
func heldRecord(t *testing.T, n *Node, id object.ID) replication.Record {
	t.Helper()
	info, err := n.Repl.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	vv, err := n.Repl.VersionVector(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Replicas) == 0 {
		info.Replicas = nil
	}
	rec := replication.Record{ID: id, VV: vv, Info: info}
	if len(vv) == 0 {
		rec.VV = nil
	}
	if e, err := n.Registry.Get(id); err == nil {
		rec.Class, rec.State, rec.Version = e.Class(), object.AttrsOf(e.Snapshot()), e.Version()
		if len(rec.State) == 0 {
			rec.State = nil
		}
	}
	return rec
}

// expectRecords checks every replica's stored record of the object against
// what the replica holds in memory: the record, read back through
// replication.Record's reader — the batch decoder's own — is what it holds.
func expectRecords(t *testing.T, c *Cluster, id object.ID) {
	t.Helper()
	for _, n := range c.Nodes {
		var back replication.Record
		if err := n.Store.Get("replica-meta", string(id), &back); err != nil {
			t.Fatalf("%s: %v", n.ID, err)
		}
		if held := heldRecord(t, n, id); !reflect.DeepEqual(back, held) {
			t.Errorf("%s replica-meta/%s reads back as\n %+v\nholds %+v", n.ID, id, back, held)
		}
	}
}

// storeWrites sums persistence.writes over the cluster's nodes.
func storeWrites(t *testing.T, c *Cluster) int64 { return storeSum(t, c, "persistence.writes") }

// storeRecords sums persistence.records, the records the writes touched, over
// the cluster's nodes.
func storeRecords(t *testing.T, c *Cluster) int64 { return storeSum(t, c, "persistence.records") }

func storeSum(t *testing.T, c *Cluster, name string) int64 {
	t.Helper()
	var sum int64
	for _, n := range c.Nodes {
		sum += counter(t, c.Obs, string(n.ID)+"."+name)
	}
	return sum
}

// TestStoreWritesPerCommitEqualReplicas runs a create, a write, a 4-object
// transaction and a delete on three full replicas, under P4 and under a
// quorum (after its stragglers landed): every replica stores what a commit
// changed in exactly one store write, so the cluster makes 3 writes per
// commit, and that write holds one record per object — the replica's record,
// or its deletion — so the cluster touches 3, 3, 12 and 3 records. With one
// write per record the 4-object transaction made 12 writes; with the
// coordinator's entity stored apart from its vector the commits made 4, 4, 16
// and 4. After each commit every replica's record is what it holds.
func TestStoreWritesPerCommitEqualReplicas(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []ClusterOption
	}{
		{"p4", nil},
		{"quorum", []ClusterOption{func(o *Options) { o.Protocol = replication.Quorum{} }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newFlightCluster(t, 3, tc.opts...)
			defer c.Stop()
			n1 := c.Node(0)
			commit := func(what string, records int64, run func() error) {
				t.Helper()
				writes, recs := storeWrites(t, c), storeRecords(t, c)
				if err := run(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				n1.Repl.WaitPropagation()
				if got := storeWrites(t, c) - writes; got != 3 {
					t.Errorf("%s: %d store writes, want 3", what, got)
				}
				if got := storeRecords(t, c) - recs; got != records {
					t.Errorf("%s: %d records stored, want %d", what, got, records)
				}
			}
			ids := []object.ID{"f1", "f2", "f3", "f4"}
			commit("create", 3, func() error {
				return n1.Create("Flight", "f1", object.State{"sold": int64(0)}, c.AllReplicas("n1"))
			})
			expectRecords(t, c, "f1")
			commit("write", 3, func() error {
				_, err := n1.Invoke("f1", "SellTickets", int64(1))
				return err
			})
			expectRecords(t, c, "f1")
			for _, id := range ids[1:] {
				if err := n1.Create("Flight", id, object.State{"sold": int64(0)}, c.AllReplicas("n1")); err != nil {
					t.Fatal(err)
				}
			}
			n1.Repl.WaitPropagation()
			commit("4-object transaction", 12, func() error {
				txn := n1.Begin()
				for i, id := range ids {
					if _, err := n1.InvokeTx(txn, id, "SellTickets", int64(i+1)); err != nil {
						_ = txn.Rollback()
						return fmt.Errorf("%s: %w", id, err)
					}
				}
				return txn.Commit()
			})
			for _, id := range ids {
				expectRecords(t, c, id)
			}
			commit("delete", 3, func() error { return n1.Delete("f1") })
			for _, n := range c.Nodes {
				if n.Store.Has("replica-meta", "f1") {
					t.Errorf("%s still stores the deleted f1", n.ID)
				}
				if got := n.Store.Len(cmpTable); got != 0 {
					t.Errorf("%s: %d entities records under replication", n.ID, got)
				}
			}
		})
	}
}

// TestUnreplicatedNodeStoresItsEntities: a node built without replication has
// no replica record, so CMP stores the entity's state at commit, one write
// per object, and drops it with the object.
func TestUnreplicatedNodeStoresItsEntities(t *testing.T) {
	c := newFlightCluster(t, 1, func(o *Options) { o.DisableReplication = true })
	defer c.Stop()
	n := c.Node(0)
	if err := n.Create("Flight", "f1", object.State{"sold": int64(0)}, replication.Info{}); err != nil {
		t.Fatal(err)
	}
	before := storeWrites(t, c)
	if _, err := n.Invoke("f1", "SellTickets", int64(2)); err != nil {
		t.Fatal(err)
	}
	if got := storeWrites(t, c) - before; got != 1 {
		t.Errorf("write: %d store writes, want 1", got)
	}
	var stored object.State
	if err := n.Store.Get(cmpTable, "f1", &stored); err != nil {
		t.Fatal(err)
	}
	if stored["sold"] != int64(2) {
		t.Errorf("entities/f1 = %v, want sold 2", stored)
	}
	if err := n.Delete("f1"); err != nil {
		t.Fatal(err)
	}
	if n.Store.Has(cmpTable, "f1") {
		t.Error("entities/f1 outlived its object")
	}
}

// TestUnreplicatedTransactionIsOneStoreWrite: without replication CMP stores
// what a transaction wrote in one write, one record per object, and every
// record is the entity's state.
func TestUnreplicatedTransactionIsOneStoreWrite(t *testing.T) {
	c := newFlightCluster(t, 1, func(o *Options) { o.DisableReplication = true })
	defer c.Stop()
	n := c.Node(0)
	ids := []object.ID{"f1", "f2", "f3", "f4"}
	for _, id := range ids {
		if err := n.Create("Flight", id, object.State{"sold": int64(0)}, replication.Info{}); err != nil {
			t.Fatal(err)
		}
	}
	writes, records := storeWrites(t, c), storeRecords(t, c)
	txn := n.Begin()
	for i, id := range ids {
		if _, err := n.InvokeTx(txn, id, "SellTickets", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := storeWrites(t, c) - writes; got != 1 {
		t.Errorf("4-object transaction: %d store writes, want 1", got)
	}
	if got := storeRecords(t, c) - records; got != 4 {
		t.Errorf("4-object transaction: %d records stored, want 4", got)
	}
	for i, id := range ids {
		var stored object.State
		if err := n.Store.Get(cmpTable, string(id), &stored); err != nil {
			t.Fatal(err)
		}
		if stored["sold"] != int64(i+1) {
			t.Errorf("entities/%s = %v, want sold %d", id, stored, i+1)
		}
	}
}
