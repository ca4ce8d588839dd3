package node_test

// An operation in its own transaction reuses its memory: the transaction and
// the invocation go back to a free list when the operation returns, so
// nothing the operation handed out may point into them.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
)

// TestMemberReadsBeforeItsCreateArrives: under a quorum a create commits
// before its straggler reaches the third replica. A read there is served by
// a replica that holds the object, as a read outside the object's group is.
func TestMemberReadsBeforeItsCreateArrives(t *testing.T) {
	c := newRegCluster(t, 3, func(o *node.Options) { o.Protocol = replication.Quorum{} })
	defer c.Stop()
	n1, n3 := c.Node(0), c.Node(2)
	c.Net.SetLatency(func(from, to transport.NodeID, kind string) time.Duration {
		if from == "n1" && to == "n3" && kind == "repl.batch" {
			return 200 * time.Millisecond
		}
		return 0
	})
	defer c.Net.SetLatency(nil)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(7)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	if n3.Repl.HasLocalReplica("o1") {
		t.Fatal("the create reached n3 before the read: nothing tested")
	}
	tally := tapSends(t, c.Net)
	got, err := n3.Invoke("o1", "Value")
	if err != nil {
		t.Fatalf("n3 reads o1 before its create arrived: %v", err)
	}
	if got != int64(7) {
		t.Fatalf("n3 read %v, want 7", got)
	}
	// Two round trips, as at a node outside the object's group: one fetch
	// resolves the class, one forward serves the read.
	expectSends(t, "n3's read", tally.take(), sends{"n1": {"repl.fetch": 1, "node.invoke": 1}})
	n1.Repl.WaitPropagation()
	expectValue(t, n3, "o1", 7)
}

// TestDeletedObjectIsNotReadBack: under a quorum a delete commits while n3,
// whose repl.batch from n1 is delayed, still holds the object. n1, which
// deleted it and holds its tombstone, refuses a read of it: it does not fetch
// or forward the read to n3, which would serve the deleted state.
func TestDeletedObjectIsNotReadBack(t *testing.T) {
	c := newRegCluster(t, 3, func(o *node.Options) { o.Protocol = replication.Quorum{} })
	defer c.Stop()
	n1, n3 := c.Node(0), c.Node(2)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(7)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	n1.Repl.WaitPropagation()
	c.Net.SetLatency(func(from, to transport.NodeID, kind string) time.Duration {
		if from == "n1" && to == "n3" && kind == "repl.batch" {
			return 200 * time.Millisecond
		}
		return 0
	})
	defer c.Net.SetLatency(nil)
	if err := n1.Delete("o1"); err != nil {
		t.Fatal(err)
	}
	if !n3.Repl.HasLocalReplica("o1") {
		t.Fatal("the delete reached n3 before the read: nothing tested")
	}
	if got, err := n1.Invoke("o1", "Value"); !errors.Is(err, replication.ErrUnknownObject) {
		t.Fatalf("n1 reads o1 after deleting it: %v, %v; want %v", got, err, replication.ErrUnknownObject)
	}
	n1.Repl.WaitPropagation()
}

// TestInvariantDoesNotSeeAnObjectDeletedInItsTransaction: a hard invariant
// looks up o2, which its transaction deleted before the write it validates.
// Every other replica still holds o2 until the commit; the lookup must not
// fetch it from them.
func TestInvariantDoesNotSeeAnObjectDeletedInItsTransaction(t *testing.T) {
	c := newRegCluster(t, 3)
	defer c.Stop()
	var lookupErr error
	for _, n := range c.Nodes {
		if err := n.DeployConstraints([]constraint.Configured{{
			Meta: constraint.Meta{
				Name: "PartnerExists", Type: constraint.HardInvariant,
				Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
				Affected: []constraint.AffectedMethod{{Class: "Reg", Method: "SetValue"}},
			},
			Impl: constraint.Func(func(ctx constraint.Context) (bool, error) {
				_, lookupErr = ctx.Lookup("o2")
				return true, nil
			}),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	n1 := c.Node(0)
	for _, id := range []object.ID{"o1", "o2"} {
		if err := n1.Create("Reg", id, object.State{"value": int64(1)}, c.AllReplicas("n1")); err != nil {
			t.Fatal(err)
		}
	}
	n1.Repl.WaitPropagation()
	tr := n1.Begin()
	if err := n1.DeleteTx(tr, "o2"); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.InvokeTx(tr, "o1", "SetValue", int64(2)); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(lookupErr, replication.ErrUnknownObject) {
		t.Fatalf("the invariant's lookup of o2, deleted earlier in its transaction: %v; want %v", lookupErr, replication.ErrUnknownObject)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
}

// keptSend is one request or reply a node sent, and its gob encoding then.
type keptSend struct {
	kind    string
	payload any
	enc     []byte
}

// keepingNet is one node's view of the network that keeps every payload it
// sends and every reply it gets, with its encoding at that moment.
type keepingNet struct {
	transport.Transport
	mu   *sync.Mutex
	kept *[]keptSend
}

func (n keepingNet) keep(kind string, v any) {
	if v == nil {
		return
	}
	enc := encodeSent(v)
	n.mu.Lock()
	*n.kept = append(*n.kept, keptSend{kind: kind, payload: v, enc: enc})
	n.mu.Unlock()
}

func (n keepingNet) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	n.keep(kind, payload)
	reply, err := n.Transport.Send(ctx, from, to, kind, payload)
	n.keep(kind+" reply", reply)
	return reply, err
}

// encodeSent is v as the wire transport's gob body would carry it; nil for a
// value gob cannot encode.
func encodeSent(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// TestRecycledOperationIsNotReadLater: operations run concurrently at three
// quorum nodes (local writes, forwarded writes, reads, and reads at a replica
// its creates reach late), and every message any of them sent, or got as a
// reply, still reads as it was sent while later operations reuse the memory
// of the ones that returned, and after all of them did.
func TestRecycledOperationIsNotReadLater(t *testing.T) {
	const (
		workers = 6
		ops     = 40
	)
	var (
		mu   sync.Mutex
		kept []keptSend
	)
	c := newRegCluster(t, 3, func(o *node.Options) {
		o.Protocol = replication.Quorum{}
		o.Net = keepingNet{Transport: o.Net, mu: &mu, kept: &kept}
	})
	defer c.Stop()
	c.Net.SetLatency(func(_, to transport.NodeID, kind string) time.Duration {
		if to == "n3" && kind == "repl.batch" {
			return 2 * time.Millisecond // n3 is every commit's straggler
		}
		return 0
	})
	defer c.Net.SetLatency(nil)

	// recheck compares every kept message with its encoding when sent.
	recheck := func() error {
		mu.Lock()
		snapshot := append([]keptSend(nil), kept...)
		mu.Unlock()
		for _, k := range snapshot {
			if k.enc == nil {
				continue
			}
			if now := encodeSent(k.payload); !bytes.Equal(now, k.enc) {
				return fmt.Errorf("a %s message changed after it was sent: %#v", k.kind, k.payload)
			}
		}
		return nil
	}
	stop := make(chan struct{})
	checked := make(chan error, 1)
	go func() {
		var err error
		for err == nil {
			select {
			case <-stop:
				checked <- nil
				return
			default:
			}
			err = recheck()
		}
		checked <- err
	}()

	var wg sync.WaitGroup
	failed := make(chan error, workers) // at most one a worker: it returns after reporting
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := object.ID(fmt.Sprintf("o%d", w))
			home := c.Node(w % 2)
			if err := home.Create("Reg", id, object.State{"value": int64(0)}, c.AllReplicas(home.ID)); err != nil {
				failed <- err
				return
			}
			// Read where the create arrives late: served by a replica that has it.
			if _, err := c.Node(2).Invoke(id, "Value"); err != nil {
				failed <- fmt.Errorf("n3 reads %s after its create: %w", id, err)
				return
			}
			// A quorum create may return before the other writer has it, and
			// a write there is refused until it does.
			for deadline := time.Now().Add(5 * time.Second); !c.Node(0).Repl.HasLocalReplica(id) || !c.Node(1).Repl.HasLocalReplica(id); {
				if time.Now().After(deadline) {
					failed <- fmt.Errorf("%s never reached both writers", id)
					return
				}
				time.Sleep(time.Millisecond)
			}
			for i := 1; i <= ops; i++ {
				// n3 reads but never writes: its creates arrive late.
				writer, reader := c.Node((w+i)%2), c.Node((w+i)%3)
				if _, err := writer.Invoke(id, "SetValue", int64(i)); err != nil {
					failed <- fmt.Errorf("%s writes %s: %w", writer.ID, id, err)
					return
				}
				v, err := reader.Invoke(id, "Value")
				if err != nil {
					failed <- fmt.Errorf("%s reads %s: %w", reader.ID, id, err)
					return
				}
				if got := v.(int64); got > int64(i) {
					failed <- fmt.Errorf("%s read %s = %d after write %d", reader.ID, id, got, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, n := range c.Nodes {
		n.Repl.WaitPropagation()
	}
	close(stop)
	if err := <-checked; err != nil {
		t.Fatal(err)
	}
	close(failed)
	if err := <-failed; err != nil {
		t.Fatal(err)
	}
	if err := recheck(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(kept)
	mu.Unlock()
	if n < workers*ops {
		t.Fatalf("only %d messages kept: the operations did not cross the network", n)
	}
}
