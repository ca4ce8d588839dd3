package node

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dedisys/internal/group"
	"dedisys/internal/object"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

// gatedWire is a wire endpoint whose sends pass a gate before they reach the
// codec: the gate may park a send (the payload is then gob-encoded only once
// it is let go) or lose it.
type gatedWire struct {
	*wiretransport.Wire
	gate func(to transport.NodeID, kind string) error
}

func (w gatedWire) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	if err := w.gate(to, kind); err != nil {
		return nil, err
	}
	return w.Wire.Send(ctx, from, to, kind, payload)
}

// TestAliasStragglerWire is replication's TestAliasStragglerSim over two
// real endpoints (guards Entity.Set's copy and the bump by reassignment where
// the other holder is an encoder): with a commit threshold of one the write
// returns before its batch is sent, so the background send gob-encodes the
// shipped map and vector after the coordinator has rewritten the object. The
// first batch is parked until two rewrites are through, the rewrites' own
// batches are lost: the replica must install the first write. A run of
// unparked rewrites then lets the race detector watch encoder and writer
// side by side.
func TestAliasStragglerWire(t *testing.T) {
	dir := t.TempDir()
	all := []transport.NodeID{"a", "b"}
	peers := map[transport.NodeID]string{}
	for _, id := range all {
		peers[id] = "unix:" + filepath.Join(dir, string(id)+".sock")
	}
	var parked atomic.Int32 // 0 open, 1 park the next batch to b, 2 lose them
	holding, release := make(chan struct{}), make(chan struct{})
	gate := func(to transport.NodeID, kind string) error {
		if to != "b" || kind != "repl.batch" {
			return nil
		}
		if parked.CompareAndSwap(1, 2) {
			close(holding)
			<-release
			return nil
		}
		if parked.Load() == 2 {
			return fmt.Errorf("%w: a -> b (lost by the test)", transport.ErrUnreachable)
		}
		return nil
	}
	schema := object.NewSchema("Entity")
	schema.DefineKind("Set", object.Write, func(e *object.Entity, args []any) (any, error) {
		e.Set(args[0].(string), args[1])
		return nil, nil
	})
	nodes := map[transport.NodeID]*Node{}
	wires := map[transport.NodeID]*wiretransport.Wire{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range all {
		w, err := wiretransport.New(id, peers)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		net := gatedWire{Wire: w, gate: gate}
		n, err := New(Options{ID: id, Net: net, GMS: group.NewMembership(net), Protocol: replication.Quorum{Threshold: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		n.RegisterSchema(schema)
		nodes[id], wires[id] = n, w
	}
	a, b := nodes["a"], nodes["b"]
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(wires["a"].WaitPeers(ctx))
	check(wires["b"].WaitPeers(ctx))
	set := func(attr string, v any) {
		t.Helper()
		_, err := a.InvokeCtx(ctx, "x", "Set", attr, v)
		check(err)
	}
	check(a.CreateCtx(ctx, "Entity", "x", object.State{"v": int64(0), "tags": []string{"a"}}, replication.NewInfo("a", all)))
	a.Repl.WaitPropagation()

	parked.Store(1)
	set("v", int64(1))
	<-holding
	firstVV, err := a.Repl.VersionVector("x")
	check(err)
	set("v", int64(2))
	set("tags", []string{"b"})
	close(release)
	a.Repl.WaitPropagation()

	eb, err := b.Registry.Get("x")
	check(err)
	if eb.GetInt("v") != 1 || !reflect.DeepEqual(eb.MustGet("tags"), []string{"a"}) {
		t.Fatalf("straggler installed %v, want the first write's state", eb.Snapshot())
	}
	if vv, _ := b.Repl.VersionVector("x"); !reflect.DeepEqual(vv, firstVV) {
		t.Fatalf("straggler installed vector %v, want the first write's %v", vv, firstVV)
	}
	ea, err := a.Registry.Get("x")
	check(err)
	if ea.GetInt("v") != 2 || !reflect.DeepEqual(ea.MustGet("tags"), []string{"b"}) {
		t.Fatalf("coordinator holds %v, want the last write's state", ea.Snapshot())
	}

	// Each Set runs while the batch of the commit before it may still be on
	// its way through the encoder; that batch is then awaited before the next
	// one is shipped, so the replica applies them one at a time, in order.
	parked.Store(0)
	for i := 3; i < 40; i++ {
		txn := a.BeginCtx(ctx)
		_, err := a.InvokeTx(txn, "x", "Set", "v", int64(i))
		check(err)
		a.Repl.WaitPropagation()
		check(txn.Commit())
	}
	a.Repl.WaitPropagation()
	if got := eb.GetInt("v"); got != 39 {
		t.Fatalf("replica reads v = %d after the burst, want 39", got)
	}
}

// TestRepeatedWritesInOneTxRollBackToFirstPreImage drives tx.RecordUpdate the
// way it is used — dispatch calls it before every write invocation — with
// eight writes to one object in one transaction: rollback must return the
// state and version from before the first, and commit must ship the last.
func TestRepeatedWritesInOneTxRollBackToFirstPreImage(t *testing.T) {
	c := newFlightCluster(t, 3)
	defer c.Stop()
	n := c.Node(0)
	if err := n.Create("Flight", "f1", object.State{"sold": int64(10), "seats": int64(80)}, c.AllReplicas(n.ID)); err != nil {
		t.Fatal(err)
	}
	e, err := n.Registry.Get("f1")
	if err != nil {
		t.Fatal(err)
	}
	want, wantVersion := e.Snapshot(), e.Version()
	sell := func(commit bool) {
		t.Helper()
		txn := n.Begin()
		for i := 0; i < 8; i++ {
			if _, err := n.InvokeTx(txn, "f1", "SellTickets", int64(1)); err != nil {
				t.Fatal(err)
			}
		}
		end := txn.Commit
		if !commit {
			end = txn.Rollback
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
	}
	sell(false)
	if got := e.Snapshot(); !reflect.DeepEqual(got, want) || e.Version() != wantVersion {
		t.Fatalf("rollback of 8 writes left %v v%d, want %v v%d", got, e.Version(), want, wantVersion)
	}
	sell(true)
	for _, r := range c.Nodes {
		re, err := r.Registry.Get("f1")
		if err != nil {
			t.Fatal(err)
		}
		if re.GetInt("sold") != 18 || re.Version() != wantVersion+8 {
			t.Fatalf("%s holds %v v%d after the commit of 8 writes", r.ID, re.Snapshot(), re.Version())
		}
	}
}

// TestReplicaReadsDuringRemoteInstalls is the small form of what
// internal/bench's TestShardedQuorumStress meets at scale: replica-local reads
// on the backups while the home's commits install remote states there. The
// reader holds its node's object lock and the install holds the replication
// manager's, so only the entity's own lock orders the two; under -race this
// fails within milliseconds without it. One writer and synchronous P4
// commits: what a backup reads never goes backwards.
func TestReplicaReadsDuringRemoteInstalls(t *testing.T) {
	const writes, reads = 400, 800
	c := newFlightCluster(t, 3)
	defer c.Stop()
	home := c.Node(0)
	if err := home.Create("Flight", "f1", object.State{"sold": int64(0), "seats": int64(80)}, c.AllReplicas(home.ID)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, backup := range c.Nodes[1:] {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			last := int64(0)
			for i := 0; i < reads; i++ {
				got, err := n.Invoke("f1", "Sold")
				if err != nil {
					t.Errorf("%s: read %d: %v", n.ID, i, err)
					return
				}
				sold := got.(int64)
				if sold < last {
					t.Errorf("%s: read %d went back from %d to %d", n.ID, i, last, sold)
					return
				}
				last = sold
			}
		}(backup)
	}
	for i := 0; i < writes; i++ {
		if _, err := home.Invoke("f1", "SellTickets", int64(1)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	wg.Wait()
	for _, n := range c.Nodes {
		if got, err := n.Invoke("f1", "Sold"); err != nil || got != int64(writes) {
			t.Fatalf("%s ends on sold=%v (%v), want %d", n.ID, got, err, writes)
		}
	}
}
