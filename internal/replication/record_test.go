package replication

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/persistence"
	"dedisys/internal/transport"
)

// plainRecord is a replica's record in plain types: the bytes json.Marshal
// writes for it are the bytes the record's encoder must write. The state is
// the plain map, not an object.State, whose MarshalJSON is an encoder under
// test too.
type plainRecord struct {
	Class   string         `json:",omitempty"`
	State   map[string]any `json:",omitempty"`
	Version int64          `json:",omitempty"`
	VV      map[transport.NodeID]int64
	Info    Info
}

// TestReplicaRecordJSONMatchesEncodingJSON holds the record's encoder to
// encoding/json's output for the plain record, byte for byte — directly,
// appended after a prefix, and through the store's self-encoding path handed
// a replica table entry, as the manager hands it — and what the store holds
// must decode to the record. A metadata-only holder's record has vector and
// placement alone.
func TestReplicaRecordJSONMatchesEncodingJSON(t *testing.T) {
	all := NewInfo("n1", []transport.NodeID{"n1", "n2", "n3"})
	cases := map[string]plainRecord{
		"full": {Class: "Flight", State: map[string]any{"sold": int64(3), "seats": int64(80)}, Version: 4,
			VV: map[transport.NodeID]int64{"n1": 3, "n2": 1}, Info: all},
		"metadata-only": {VV: map[transport.NodeID]int64{"n1": 2}, Info: NewInfo("n1", []transport.NodeID{"n1"})},
		"escaping": {Class: `Fl"<ight>&\`, State: map[string]any{"route": "VIE<->GRZ & back", `k"ey`: []string{"a\nb", "ü"}},
			Version: 1, VV: map[transport.NodeID]int64{`n"1`: 1, "<n2>": 2}, Info: NewInfo("a&b", []transport.NodeID{"a&b", "\x00\x1f"})},
		"integer extremes": {Class: "C", State: map[string]any{"min": int64(math.MinInt64), "max": int64(math.MaxInt64)}, Version: math.MaxInt64,
			VV: map[transport.NodeID]int64{"n1": math.MaxInt64, "n2": math.MinInt64, "n3": -1}, Info: all},
		"negative version": {Class: "C", State: map[string]any{"n": int64(0)}, Version: math.MinInt64, VV: map[transport.NodeID]int64{}, Info: all},
		"empty state":      {Class: "C", State: map[string]any{}, Version: 1, VV: map[transport.NodeID]int64{"n1": 1}, Info: all},
		"no placement":     {VV: nil, Info: Info{}},
		"no replicas":      {Class: "C", Version: 2, VV: map[transport.NodeID]int64{"n1": 1}, Info: Info{Home: "n1", Replicas: []transport.NodeID{}}},
	}
	store := persistence.NewStore()
	var mu sync.Mutex
	for name, model := range cases {
		rec := replicaRecord{Class: model.Class, State: object.AttrsOf(object.State(model.State)), Version: model.Version, VV: vvFromMap(model.VV), Info: model.Info}
		want, err := json.Marshal(model)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.AppendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: AppendJSON\n got %s, %v\nwant %s", name, got, err, want)
		}
		const prefix = `{"rec":`
		if got, err := rec.AppendJSON([]byte(prefix)); err != nil || string(got) != prefix+string(want) {
			t.Errorf("%s: AppendJSON after %s\n got %s, %v\nwant %s%s", name, prefix, got, err, prefix, want)
		}
		// The table entry encodes what it holds: the entity's class, state and
		// version (none without one), its vector and its placement.
		rs := &replicaState{mu: &mu, vv: rec.VV, info: rec.Info}
		if rec.Class != "" {
			rs.e = object.New(rec.Class, "o", nil)
			rs.e.Restore(rec.State, rec.Version)
		}
		if err := store.Put("t", name, rs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var raw json.RawMessage
		if err := store.Get("t", name, &raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s: stored\n got %s\nwant %s", name, raw, want)
		}
		var back plainRecord
		if err := store.Get("t", name, &back); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if back.Class != model.Class || back.Version != model.Version || len(back.State) != len(model.State) || len(back.VV) != len(model.VV) ||
			back.Info.Home != model.Info.Home || len(back.Info.Replicas) != len(model.Info.Replicas) {
			t.Errorf("%s: decoded %+v, want %+v", name, back, model)
		}
	}
	// A state that does not encode fails the record, and dst comes back as it
	// was handed in.
	bad := replicaRecord{Class: "C", State: object.AttrsOf(object.State{"ch": make(chan int)}), VV: VersionVector{{Node: "n1", Count: 1}}}
	if got, err := bad.AppendJSON([]byte("prefix")); err == nil || string(got) != "prefix" {
		t.Errorf("unencodable state: AppendJSON = %q, %v; want the prefix back and an error", got, err)
	}
}
