package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

// corePayloads are the payloads the CCM puts on the wire, named by what
// sends them.
func corePayloads() []struct {
	name    string
	payload any
} {
	th := threat.Threat{
		Seq: 7, Constraint: "TicketConstraint", ContextID: "f1", Degree: constraint.PossiblyViolated,
		Affected: []threat.AffectedObject{{
			ID: "f1", Class: "Flight",
			Staleness: constraint.Staleness{PossiblyStale: true, Version: 3, EstimatedLatest: 5},
			State:     object.State{"sold": int64(85)},
		}},
		AppData:      map[string]string{"ticket": "T-17"},
		Instructions: constraint.ReconciliationInstructions{AllowRollback: true},
		Count:        3, TxID: 99, UID: "n1#7",
	}
	other := threat.Threat{Constraint: "Ghost", Degree: constraint.Uncheckable, UID: "n2#1"}
	return []struct {
		name    string
		payload any
	}{
		{"one accepted threat (a commit's)", threat.Delta{Added: []threat.Threat{th}}},
		{"a store (a pass's)", []threat.Threat{th, other, th}},
		{"one identity (a satisfying business operation's)", threat.Delta{Removed: []string{th.Identity()}}},
		{"a pass's identities", threat.Delta{Removed: []string{th.Identity(), other.Identity(), ""}}},
		{"a cleared identity and an accepted threat (a commit's)", threat.Delta{Removed: []string{other.Identity()}, Added: []threat.Threat{th}}},
	}
}

// TestWireCodecCorePayloads pushes what the CCM puts on the wire — the change
// of ccm.threats, the store of ccm.threat.sync and its reply — through gob,
// through a frame (neither has a form of its own: both ride gob) and through
// a real link whose far end echoes it.
func TestWireCodecCorePayloads(t *testing.T) {
	dir := t.TempDir()
	peers := map[transport.NodeID]string{
		"a": "unix:" + filepath.Join(dir, "a.sock"),
		"b": "unix:" + filepath.Join(dir, "b.sock"),
	}
	wires := map[transport.NodeID]*wiretransport.Wire{}
	for id := range peers {
		w, err := wiretransport.New(id, peers)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		wires[id] = w
	}
	if err := wires["b"].Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, tc := range corePayloads() {
		t.Run(tc.name, func(t *testing.T) {
			viaGob, err := wiretransport.RoundTrip(tc.payload)
			if err != nil {
				t.Fatalf("gob round trip: %v", err)
			}
			if !reflect.DeepEqual(viaGob, tc.payload) {
				t.Fatalf("gob round trip:\n sent %#v\n got  %#v", tc.payload, viaGob)
			}
			viaFrame, self, err := wiretransport.RoundTripFrame(tc.payload)
			if err != nil || self {
				t.Fatalf("frame round trip: self-encoded %v, err %v", self, err)
			}
			if !reflect.DeepEqual(viaFrame, tc.payload) {
				t.Fatalf("frame round trip:\n sent %#v\n got  %#v", tc.payload, viaFrame)
			}
			echoed, err := wires["a"].Send(ctx, "a", "b", "echo", tc.payload)
			if err != nil {
				t.Fatalf("over a link: %v", err)
			}
			if !reflect.DeepEqual(echoed, tc.payload) {
				t.Fatalf("over a link and back:\n sent %#v\n got  %#v", tc.payload, echoed)
			}
		})
	}
	if got := counter(t, wires["a"].Observer(), "transport.failures"); got != 0 {
		t.Fatalf("failures = %d: a payload killed the link", got)
	}
}

// FuzzThreatExchange feeds the threat exchange arbitrary bytes, seeded with
// the gob encodings of corePayloads. Bytes that gob-decode into a change go to
// the ccm.threats handler; bytes that decode into a threat list go to the
// ccm.threat.sync handler and come back as a peer's reply to SyncThreats.
// None of them may panic the node. n1's store holds one threat of its own, so
// a removal and a fold have a record to meet.
func FuzzThreatExchange(f *testing.F) {
	for _, tc := range corePayloads() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tc.payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env := newReplEnv(t)
		if _, _, err := env.ths.Add(corePayloads()[0].payload.(threat.Delta).Added[0]); err != nil {
			t.Fatal(err)
		}
		var d threat.Delta
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&d) == nil {
			_, _ = env.ccm.handleThreats("n2", d)
		}
		var ths []threat.Threat
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&ths) == nil {
			_, _ = env.ccm.handleThreatSync("n2", ths)
			if err := env.net.Handle("n2", msgThreatSync, func(transport.NodeID, any) (any, error) { return ths, nil }); err != nil {
				t.Fatal(err)
			}
			_ = env.ccm.SyncThreats(context.Background(), []transport.NodeID{"n2"})
		}
	})
}
