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

// corePayloads are the payloads the CCM puts on the wire — a store, as
// ccm.threat.sync's request and its reply — named by what sends them. A
// threat change rides replication's repl.batch.
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
		{"a store (a pass's)", []threat.Threat{th, other, th}},
		{"a peer's store (its reply)", []threat.Threat{other, th}},
		{"one threat with every field", []threat.Threat{th}},
		{"one threat with none but its constraint, degree and UID", []threat.Threat{other}},
		{"an empty store (the reply of a peer that holds none)", []threat.Threat(nil)},
	}
}

// TestWireCodecCorePayloads pushes what the CCM puts on the wire — the store
// of ccm.threat.sync and of its reply — through gob, through a frame (it has
// no form of its own: it rides gob) and through a real link whose far end
// echoes it.
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
// the gob encodings of corePayloads. Bytes that gob-decode into a threat list
// go to the ccm.threat.sync handler and come back as a peer's reply to
// SyncThreats. None of them may panic the node. n1's store holds one threat
// of its own, so a fold has a record to meet.
func FuzzThreatExchange(f *testing.F) {
	for _, tc := range corePayloads() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tc.payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ths []threat.Threat
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&ths) != nil {
			return
		}
		env := newReplEnv(t)
		if _, _, err := env.ths.Add(corePayloads()[2].payload.([]threat.Threat)[0]); err != nil {
			t.Fatal(err)
		}
		_, _ = env.ccm.handleThreatSync("n2", ths)
		if err := env.net.Handle("n2", msgThreatSync, func(transport.NodeID, any) (any, error) { return ths, nil }); err != nil {
			t.Fatal(err)
		}
		_ = env.ccm.SyncThreats(context.Background(), []transport.NodeID{"n2"})
	})
}
