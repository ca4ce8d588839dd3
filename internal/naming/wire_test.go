package naming

import (
	"reflect"
	"testing"

	"dedisys/internal/wiretransport"
)

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

func TestWireCodecNamingPayloads(t *testing.T) {
	live := binding{ID: "acct-1", Epoch: 7}
	dead := binding{ID: "acct-2", Epoch: 9, Dead: true}
	roundTrip(t, bindMsg{Name: "accounts/alice", Binding: live})
	roundTrip(t, bindMsg{Name: "accounts/bob", Binding: dead})
	// The sync pull reply ships the full table.
	roundTrip(t, map[string]binding{"accounts/alice": live, "accounts/bob": dead})
	roundTrip(t, "ack")
}
