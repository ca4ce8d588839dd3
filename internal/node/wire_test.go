package node

import (
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
	// commit made it: the round's own batch while healthy, and a batch with
	// the accepted threat from a degraded first-threat write that made no
	// round. Both ride gob, nested in the reply.
	c := newFlightCluster(t, 3)
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.HardInvariant))
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	forwarded := func(want string) {
		t.Helper()
		reply, err := n1.handleRemoteInvoke("n2", remoteInvokePayload{Target: "f1", Method: "SellTickets", Args: []any{int64(1)}})
		if err != nil {
			t.Fatal(err)
		}
		r, ok := reply.(*invokeReply)
		if !ok || fmt.Sprintf("%T", r.Apply) != want {
			t.Fatalf("reply %#v, want an *invokeReply whose Apply is a %s", reply, want)
		}
		roundTripPayload(t, reply)
	}
	forwarded("*replication.batchMsg")
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	forwarded("*replication.threatBatch")
}
