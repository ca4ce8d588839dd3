package replication

import (
	"reflect"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

// roundTrip pushes one payload through the wire codec and requires a
// lossless copy back — the guard against unexported fields (gob drops them
// silently) and unregistered concrete types in interface slots.
func roundTrip(t *testing.T, payload any) {
	t.Helper()
	out, err := wiretransport.RoundTrip(payload)
	if err != nil {
		t.Fatalf("round trip %T: %v", payload, err)
	}
	if !reflect.DeepEqual(out, payload) {
		t.Fatalf("round trip %T:\n sent %#v\n got  %#v", payload, payload, out)
	}
}

func TestWireCodecReplicationPayloads(t *testing.T) {
	st := object.State{"name": "alice", "balance": 42.5, "visits": 7, "vip": true}
	vv := VersionVector{"a": 3, "b": 1}
	info := NewInfo("a", []transport.NodeID{"a", "b", "c"})

	create := createMsg{ID: "acct-1", Class: "Account", State: st, Version: 4, VV: vv, Info: info}
	apply := applyMsg{ID: "acct-1", State: st, Version: 5, VV: vv}
	del := deleteMsg{ID: "acct-1", VV: vv}

	roundTrip(t, batchMsg{Ops: []batchOp{
		{Kind: msgCreate, Create: create},
		{Kind: msgApply, Apply: apply},
		{Kind: msgDelete, Delete: del},
	}})
	roundTrip(t, fetchReply{Class: "Account", State: st, Version: 6, Stale: true})
	roundTrip(t, []Record{{
		ID:      "acct-1",
		Class:   "Account",
		State:   st,
		Version: 6,
		VV:      vv,
		Info:    info,
		History: []HistoryEntry{{State: st, Version: 5, VV: vv}},
	}})
	// 2PC-style request payloads that ride on bare IDs (repl.fetch).
	roundTrip(t, object.ID("acct-1"))
	// Handler acks that cross back as responses.
	roundTrip(t, batchAck{Applied: 1})
	roundTrip(t, batchAck{}) // all-zero: gob sends no field, the type must still arrive
}
