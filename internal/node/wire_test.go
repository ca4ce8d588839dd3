package node

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

func roundTripPayload(t *testing.T, payload any) {
	t.Helper()
	out, err := wiretransport.RoundTrip(payload)
	if err != nil {
		t.Fatalf("round trip %T: %v", payload, err)
	}
	if !reflect.DeepEqual(out, payload) {
		t.Fatalf("round trip %T:\n sent %#v\n got  %#v", payload, payload, out)
	}
}

func TestWireCodecNodePayloads(t *testing.T) {
	// Forwarded invocations carry heterogeneous argument lists; every
	// concrete argument type an application passes must survive the codec.
	roundTripPayload(t, remoteInvokePayload{
		Target: "acct-1",
		Method: "Deposit",
		Args:   []any{"alice", 42, 3.5, true, object.ID("acct-2")},
	})
	// Forwarded deletes ship the bare object ID.
	roundTripPayload(t, object.ID("acct-1"))

	// The reply to a forwarded write carries the requester's batch, as a
	// commit made it. It rides gob, the batch nested in the reply.
	replies := forwardedReplies(t)
	for i, want := range []string{"*replication.batchMsg", "*replication.threatBatch"} {
		if got := fmt.Sprintf("%T", replies[i].Apply); got != want {
			t.Fatalf("reply %#v, want an *invokeReply whose Apply is a %s", replies[i], want)
		}
		roundTripPayload(t, replies[i])
	}
}

// forwardedReplies returns the replies n1 gives to n2's forwarded SellTickets
// on a flight both replicate, as a commit makes them: the round's own batch
// while healthy, and a batch with the accepted threat from a degraded
// first-threat write that made no round.
func forwardedReplies(t testing.TB) []*invokeReply {
	t.Helper()
	c := newFlightCluster(t, 3)
	defer c.Stop()
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.HardInvariant))
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	forwarded := func() *invokeReply {
		t.Helper()
		reply, err := n1.handleRemoteInvoke("n2", remoteInvokePayload{Target: "f1", Method: "SellTickets", Args: []any{int64(1)}})
		if err != nil {
			t.Fatal(err)
		}
		r, ok := reply.(*invokeReply)
		if !ok {
			t.Fatalf("reply %#v, want an *invokeReply", reply)
		}
		return r
	}
	healthy := forwarded()
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	return []*invokeReply{healthy, forwarded()}
}

// threatChangeReply returns a reply whose batch is a threat change with no
// ops — a removal and the degraded reply's accepted threat — of the type the
// degraded reply's batch has: the repl.batch a view member no commit round
// reaches is sent, and a reconciliation pass's removals.
func threatChangeReply(degraded *invokeReply) *invokeReply {
	b := reflect.New(reflect.TypeOf(degraded.Apply).Elem()).Elem()
	b.FieldByName("Added").Set(reflect.ValueOf(degraded.Apply).Elem().FieldByName("Added"))
	b.FieldByName("Removed").Set(reflect.ValueOf([]string{"TicketConstraint|f2"}))
	return &invokeReply{Apply: b.Addr().Interface()}
}

// FuzzInvokeReply feeds arbitrary bytes through gob into the reply to a
// forwarded invocation (node.invoke), seeded with the gob encodings of real
// replies and of a threat change with no ops. A reply that decodes is handled
// as forward handles it: its batch — ops, threats or both — is applied to the
// forwarding node's replicas and threat store. That must not panic, and
// every entity the node holds afterwards has its attributes in name order —
// gob checks no order, applyOps does — and encodes.
func FuzzInvokeReply(f *testing.F) {
	replies := forwardedReplies(f)
	for _, reply := range append(replies, threatChangeReply(replies[1])) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(reply); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var reply invokeReply
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&reply) != nil || reply.Apply == nil {
			return
		}
		c := newFlightCluster(t, 3)
		defer c.Stop()
		n1, n2 := c.Node(0), c.Node(1)
		if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
			t.Fatal(err)
		}
		n2.Repl.ApplyForwarded(n1.ID, reply.Apply)
		for _, id := range n2.Registry.IDs() {
			e, err := n2.Registry.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if attrs, _ := e.Share(); !attrs.Sorted() {
				t.Fatalf("%s holds %#v: names out of order", id, attrs)
			}
			_, _ = e.AppendWire(nil) // a value the wire form cannot carry declines, never panics
		}
	})
}
