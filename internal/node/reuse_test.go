package node_test

// An operation in its own transaction reuses its memory: the transaction and
// the invocation go back to a free list when the operation returns, so
// nothing the operation handed out may point into them. So does a commit's
// round once its sends are answered: a request is its sender's until its Send
// returns.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
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
	tally := tapSends(t, c.Net)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(7)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	if n3.Repl.HasLocalReplica("o1") {
		t.Fatal("the create reached n3 before the read: nothing tested")
	}
	// The create returns on n2's ack, and its straggler may leave n1 only
	// after that: the read's tally starts once it is on its way.
	tally.await(t, "n3", "repl.batch")
	tally.take()
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

// TestMemberWritesBeforeItsCreateArrives: under a quorum a create commits
// before its straggler reaches the third replica. A write there is forwarded
// to a replica that holds the object, which routes it to its coordinator; the
// write reaches n3 behind its create.
func TestMemberWritesBeforeItsCreateArrives(t *testing.T) {
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
		t.Fatal("the create reached n3 before the write: nothing tested")
	}
	if _, err := n3.Invoke("o1", "SetValue", int64(8)); err != nil {
		t.Fatalf("n3 writes o1 before its create arrived: %v", err)
	}
	n1.Repl.WaitPropagation()
	for _, n := range c.Nodes {
		expectValue(t, n, "o1", 8)
	}
}

// TestForwardedWriteIsNotForwardedAgain: five quorum nodes, and n1 and n3
// both lag behind n5's create. n3's write goes to n1 first, which has not
// heard of the object either and refuses it instead of forwarding it on; n3
// then forwards it to n2, which routes it to the coordinator, n5. It does so
// also over a network that carries errors as their text, as a wire does.
func TestForwardedWriteIsNotForwardedAgain(t *testing.T) {
	for _, textErrors := range []bool{false, true} {
		t.Run(fmt.Sprintf("textErrors=%v", textErrors), func(t *testing.T) {
			c := newRegCluster(t, 5, func(o *node.Options) {
				o.Protocol = replication.Quorum{}
				if textErrors {
					o.Net = textErrNet{o.Net}
				}
			})
			defer c.Stop()
			n3, n5 := c.Node(2), c.Node(4)
			c.Net.SetLatency(func(from, to transport.NodeID, kind string) time.Duration {
				if from == "n5" && (to == "n1" || to == "n3") && kind == "repl.batch" {
					return 200 * time.Millisecond
				}
				return 0
			})
			defer c.Net.SetLatency(nil)
			if err := n5.Create("Reg", "o1", object.State{"value": int64(7)}, c.AllReplicas("n5")); err != nil {
				t.Fatal(err)
			}
			if c.Node(0).Repl.HasLocalReplica("o1") || n3.Repl.HasLocalReplica("o1") {
				t.Fatal("the create reached n1 or n3 before the write: nothing tested")
			}
			var mu sync.Mutex
			var invokes []string // sender>destination of each node.invoke
			c.Net.SetDrop(func(from, to transport.NodeID, kind string) bool {
				if kind == "node.invoke" {
					mu.Lock()
					invokes = append(invokes, string(from)+">"+string(to))
					mu.Unlock()
				}
				return false
			})
			defer c.Net.SetDrop(nil)
			if _, err := n3.Invoke("o1", "SetValue", int64(8)); err != nil {
				t.Fatalf("n3 writes o1 before its create arrived: %v", err)
			}
			mu.Lock()
			got := invokes
			mu.Unlock()
			if want := []string{"n3>n1", "n3>n2", "n2>n5"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("node.invoke sent %v, want %v", got, want)
			}
			n5.Repl.WaitPropagation()
			for _, n := range c.Nodes {
				expectValue(t, n, "o1", 8)
			}
		})
	}
}

// textErrNet carries a failed send's error as its text, as the wire transport
// does: no sentinel survives it.
type textErrNet struct{ transport.Transport }

func (n textErrNet) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	reply, err := n.Transport.Send(ctx, from, to, kind, payload)
	if err != nil {
		err = errors.New(err.Error())
	}
	return reply, err
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

// keptSend is one reply a node got, and its gob encoding then.
type keptSend struct {
	kind    string
	payload any
	enc     []byte
}

// keepingNet is one node's view of the network under the send-lifetime rule.
// A request is its sender's, to be read until its Send returns: it must then
// still encode as it did when it was sent. A reply is the requester's to
// keep: every one is kept with its encoding at that moment.
type keepingNet struct {
	transport.Transport
	mu      *sync.Mutex
	kept    *[]keptSend
	sent    *int     // requests checked when their Send returned
	changed *[]error // requests that did not read as sent then
}

func (n keepingNet) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	enc := encodeSent(payload)
	reply, err := n.Transport.Send(ctx, from, to, kind, payload)
	var changed error
	if enc != nil && !bytes.Equal(encodeSent(payload), enc) {
		changed = fmt.Errorf("a %s request changed before its send to %s returned: %#v", kind, to, payload)
	}
	var replyEnc []byte
	if reply != nil {
		replyEnc = encodeSent(reply)
	}
	n.mu.Lock()
	*n.sent++
	if changed != nil {
		*n.changed = append(*n.changed, changed)
	}
	if reply != nil {
		*n.kept = append(*n.kept, keptSend{kind: kind + " reply", payload: reply, enc: replyEnc})
	}
	n.mu.Unlock()
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
// its creates reach late). Every request any of them sent reads as it was
// sent until its Send returns — also a straggler's, whose round the commit
// has returned from — and every reply any of them got still reads as it was
// while later operations reuse the memory of the ones that returned, and
// after all of them did.
func TestRecycledOperationIsNotReadLater(t *testing.T) {
	const (
		workers = 6
		ops     = 40
	)
	var (
		mu      sync.Mutex
		kept    []keptSend
		sent    int
		changed []error
	)
	c := newRegCluster(t, 3, func(o *node.Options) {
		o.Protocol = replication.Quorum{}
		o.Net = keepingNet{Transport: o.Net, mu: &mu, kept: &kept, sent: &sent, changed: &changed}
	})
	defer c.Stop()
	c.Net.SetLatency(func(_, to transport.NodeID, kind string) time.Duration {
		if to == "n3" && kind == "repl.batch" {
			return 2 * time.Millisecond // n3 is every commit's straggler
		}
		return 0
	})
	defer c.Net.SetLatency(nil)

	// recheck fails on the first request that changed in its send, and
	// compares every kept reply with its encoding when it came.
	recheck := func() error {
		mu.Lock()
		snapshot := append([]keptSend(nil), kept...)
		var first error
		if len(changed) > 0 {
			first = changed[0]
		}
		mu.Unlock()
		if first != nil {
			return first
		}
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
	n := sent
	mu.Unlock()
	if n < workers*ops {
		t.Fatalf("only %d requests sent: the operations did not cross the network", n)
	}
}
