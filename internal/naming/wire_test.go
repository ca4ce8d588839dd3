package naming

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"

	"dedisys/internal/transport"
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
	// A sync request and its reply ship the full table.
	roundTrip(t, map[string]binding{"accounts/alice": live, "accounts/bob": dead})
	roundTrip(t, "ack")
}

// FuzzNamingExchange feeds gob bytes to the naming service's wire kinds,
// seeded with the gob encodings of two bind messages and a binding table.
// Bytes that decode into a bindMsg go to handleBind; bytes that decode into a
// table go to handleSync and are merged as a peer's reply to SyncAll. Neither
// may panic, and the service's epoch must stay at least every binding's, so
// that its next local bind supersedes what it took in.
func FuzzNamingExchange(f *testing.F) {
	live := binding{ID: "acct-1", Epoch: 7}
	dead := binding{ID: "acct-2", Epoch: 9, Dead: true}
	for _, payload := range []any{
		bindMsg{Name: "accounts/alice", Binding: live},
		bindMsg{Name: "accounts/bob", Binding: dead},
		map[string]binding{"accounts/alice": live, "accounts/bob": dead},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, s, _ := twoServices(t)
		if err := s.Bind("accounts/alice", "acct-0"); err != nil {
			t.Fatal(err)
		}
		var msg bindMsg
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&msg) == nil {
			_, _ = s.handleBind("n2", msg)
		}
		var table map[string]binding
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&table) == nil {
			if _, err := s.handleSync("n2", table); err != nil {
				t.Fatal(err)
			}
			if err := net.Handle("n2", msgSync, func(transport.NodeID, any) (any, error) { return table, nil }); err != nil {
				t.Fatal(err)
			}
			for _, res := range s.SyncAll(context.Background(), []transport.NodeID{"n2"}) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
			}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for name, b := range s.bindings {
			if b.Epoch > s.epoch {
				t.Fatalf("binding %q at epoch %d above the service's %d", name, b.Epoch, s.epoch)
			}
		}
	})
}
