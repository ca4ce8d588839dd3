package replication

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/persistence"
	"dedisys/internal/transport"
)

// recordCases are replica table entries as the manager holds them, the ID
// being the object's: every shape a record takes.
func recordCases() map[string]Record {
	all := NewInfo("n1", []transport.NodeID{"n1", "n2", "n3"})
	return map[string]Record{
		"full": {ID: "f1", Class: "Flight", State: object.AttrsOf(object.State{"sold": int64(3), "seats": int64(80)}), Version: 4,
			VV: VersionVector{{Node: "n1", Count: 3}, {Node: "n2", Count: 1}}, Info: all},
		"metadata-only": {ID: "f2", VV: VersionVector{{Node: "n1", Count: 2}}, Info: NewInfo("n1", []transport.NodeID{"n1"})},
		"odd strings": {ID: `f"<3>`, Class: `Fl"<ight>&\`, State: object.AttrsOf(object.State{"route": "VIE<->GRZ & back", `k"ey`: []string{"a\nb", "ü"}}),
			Version: 1, VV: VersionVector{{Node: "<n2>", Count: 2}, {Node: `n"1`, Count: 1}}, Info: NewInfo("a&b", []transport.NodeID{"a&b", "\x00\x1f"})},
		"integer extremes": {ID: "x", Class: "C", State: object.AttrsOf(object.State{"min": int64(math.MinInt64), "max": int64(math.MaxInt64)}), Version: math.MaxInt64,
			VV: VersionVector{{Node: "n1", Count: math.MaxInt64}, {Node: "n2", Count: math.MinInt64}, {Node: "n3", Count: -1}}, Info: all},
		"negative version": {ID: "y", Class: "C", State: object.AttrsOf(object.State{"n": int64(0)}), Version: math.MinInt64, Info: all},
		"no placement":     {ID: "z"},
	}
}

// historyEntry is a degraded write's history entry, as recordHistory stores
// it: the update that installed the state.
func historyEntry() *batchOp {
	return &batchOp{Kind: opApply, ID: "f1", State: object.AttrsOf(object.State{"sold": int64(5)}), Version: 6, VV: VersionVector{{Node: "n2", Count: 4}}}
}

// entryOf is the replica table entry holding rec, as the manager builds it.
func entryOf(mu *sync.Mutex, rec Record) *replicaState {
	rs := &replicaState{mu: mu, id: rec.ID, vv: rec.VV, info: rec.Info}
	if rec.Class != "" {
		rs.e = object.New(rec.Class, rec.ID, nil)
		rs.e.Restore(rec.State, rec.Version)
	}
	return rs
}

// TestReplicaRecordRoundTrip: a replica's record, stored through the table
// entry as the manager hands it, is the wire form of the create that would
// install the replica — byte for byte a one-op batch's op — and reads back,
// through the batch decoder's op reader, as what the entry holds. A
// metadata-only holder's record has no class and no state. A history entry is
// the update's form and reads back the same way.
func TestReplicaRecordRoundTrip(t *testing.T) {
	store := persistence.NewStore()
	var mu sync.Mutex
	for name, rec := range recordCases() {
		if err := store.Put(tableReplicaMeta, name, entryOf(&mu, rec)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		op := batchOp{Kind: opCreate, ID: rec.ID, Class: rec.Class, State: rec.State, Version: rec.Version, VV: rec.VV, Info: rec.Info}
		batch, ok := (&batchMsg{Ops: []batchOp{op}}).AppendWire(nil)
		if !ok {
			t.Fatalf("%s: the batch declined", name)
		}
		if got := storedBytes(t, store, tableReplicaMeta, name); !bytes.Equal(got, batch[1:]) {
			t.Errorf("%s: stored\n %x\nthe batch's op\n %x", name, got, batch[1:])
		}
		var back Record
		if err := store.Get(tableReplicaMeta, name, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := readBack(rec); !reflect.DeepEqual(back, want) {
			t.Errorf("%s: read back\n %#v\nwant %#v", name, back, want)
		}
	}
	entry := historyEntry()
	if err := store.Put(tableHistory, "f1#6", entry); err != nil {
		t.Fatal(err)
	}
	var back batchOp
	if err := store.Get(tableHistory, "f1#6", &back); err != nil || !reflect.DeepEqual(&back, entry) {
		t.Errorf("history entry read back %#v, %v; want %#v", back, err, entry)
	}
	// A stored op that is no create is no replica record.
	var rec Record
	if err := store.Get(tableHistory, "f1#6", &rec); err == nil {
		t.Errorf("an update read back as a replica record: %#v", rec)
	}
}

// readBack is rec as its stored record reads back: empty lists nil, as the
// wire decoder has them.
func readBack(rec Record) Record {
	if len(rec.State) == 0 {
		rec.State = nil
	}
	if len(rec.VV) == 0 {
		rec.VV = nil
	}
	if len(rec.Info.Replicas) == 0 {
		rec.Info.Replicas = nil
	}
	return rec
}

// TestRecordWireGolden pins the stored forms against
// testdata/record_wire.golden, captured when the records left JSON: a full
// replica record, a metadata-only one, and a history entry.
func TestRecordWireGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "record_wire.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, form, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			golden[name] = form
		}
	}
	var mu sync.Mutex
	cases := recordCases()
	history := historyEntry()
	for name, rec := range map[string]persistence.Record{
		"full": entryOf(&mu, cases["full"]), "metadata-only": entryOf(&mu, cases["metadata-only"]), "history": history,
	} {
		got, ok := rec.AppendWire(nil)
		if !ok || hex.EncodeToString(got) != golden[name] {
			t.Errorf("%s: %x, %v\nwant %s", name, got, ok, golden[name])
		}
	}
	if len(golden) != 3 {
		t.Errorf("the golden table has %d forms, want 3", len(golden))
	}
}

// rawRecord reads a record's bytes as they are.
type rawRecord []byte

func (b *rawRecord) ReadWire(r *transport.WireReader) {
	for *b = nil; r.Len() > 0; {
		*b = append(*b, r.Byte())
	}
}

// storedBytes returns the bytes stored at (table, key).
func storedBytes(t *testing.T, store *persistence.Store, table, key string) []byte {
	t.Helper()
	var b rawRecord
	if err := store.Get(table, key, &b); err != nil {
		t.Fatalf("%s/%s: %v", table, key, err)
	}
	return b
}

// storedText decodes the replica record at key through Record.ReadWire and
// renders it as text: its class, state, version, vector and placement in the
// JSON the recorded texts of the batch and decide tests were written in.
func storedText(t *testing.T, store *persistence.Store, key string) string {
	t.Helper()
	var rec Record
	if err := store.Get(tableReplicaMeta, key, &rec); err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	type info struct {
		Home     transport.NodeID   `json:"home"`
		Replicas []transport.NodeID `json:"replicas"`
	}
	text, err := json.Marshal(struct {
		Class   string         `json:",omitempty"`
		State   map[string]any `json:",omitempty"`
		Version int64          `json:",omitempty"`
		VV      map[transport.NodeID]int64
		Info    info
	}{rec.Class, rec.State.Map(), rec.Version, vvMap(rec.VV), info(rec.Info)})
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}
