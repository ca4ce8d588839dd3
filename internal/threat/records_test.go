package threat

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/persistence"
	"dedisys/internal/transport"
)

// rawRecord reads a stored record's bytes as they are.
type rawRecord []byte

func (b *rawRecord) ReadWire(r *transport.WireReader) {
	for *b = nil; r.Len() > 0; {
		*b = append(*b, r.Byte())
	}
}

// TestThreatRecordsGolden pins the threats table: the keys a stored threat
// leaves are fmt's "t%08d" and that key with "/affected" and "/appdata", for
// the first sequence number and for one of nine digits, where the key
// outgrows its padding; their bytes are the ones testdata/threat_records.golden
// captured when the records left JSON for their binary form.
func TestThreatRecordsGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "threat_records.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if key, bytes, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			golden[key] = bytes
		}
	}
	seen := 0
	for _, seq := range []int64{1, 123456789} {
		backing := persistence.NewStore()
		s := NewStore(backing, IdenticalOnce)
		s.SetOwner("n1")
		s.seq = seq - 1
		stored, isNew, err := s.Add(sample("C1", "f1"))
		if err != nil || !isNew || stored.Seq != seq {
			t.Fatalf("add: seq %d, new %v, %v", stored.Seq, isNew, err)
		}
		key := fmt.Sprintf("t%08d", seq)
		if seq == 1 && key != "t00000001" || seq > 1 && key != "t123456789" {
			t.Fatalf("reference key %q", key)
		}
		want := []string{key, key + "/affected", key + "/appdata"}
		if keys := backing.Keys(table); !reflect.DeepEqual(keys, want) {
			t.Fatalf("seq %d: keys %v, want %v", seq, keys, want)
		}
		for _, k := range want {
			var got rawRecord
			if err := backing.Get(table, k, &got); err != nil {
				t.Fatalf("seq %d: %v", seq, err)
			}
			if hex.EncodeToString(got) != golden[k] {
				t.Errorf("%s:\n got %x\nwant %s", k, got, golden[k])
			}
			seen++
		}
	}
	if seen != len(golden) {
		t.Errorf("the golden table has %d records, the threats %d", len(golden), seen)
	}
}

// TestThreatRecordsRoundTrip: each of a threat's three records, read back
// through its type's reader, is what the store holds of the threat, over the
// shapes a record takes: empty and nil lists and maps, every instruction,
// captured states and odd strings. An empty list, map or state reads back
// nil. A captured state the wire form cannot carry fails the Add.
func TestThreatRecordsRoundTrip(t *testing.T) {
	odd := "a\"b\\c<d>&e\u00e9\n"
	threats := []Threat{
		{},
		sample("C1", "f1"),
		{Constraint: odd, ContextID: object.ID(odd), Degree: constraint.Uncheckable, Affected: []AffectedObject{},
			AppData: map[string]string{}, Instructions: constraint.ReconciliationInstructions{AllowRollback: true, NotifyOnReplicaConflict: true},
			Count: 3, TxID: -1, UID: odd},
		{Constraint: "C2", Instructions: constraint.ReconciliationInstructions{NotifyOnReplicaConflict: true}, Affected: []AffectedObject{
			{ID: "a", Class: odd, State: object.State{"n": int64(-5), "s": odd, "r": []object.ID{"x", "y"}, "b": true, "z": nil}},
			{ID: "b", State: object.State{}},
			{ID: "c", Staleness: constraint.Staleness{Version: -1, EstimatedLatest: 1 << 62}},
		}, AppData: map[string]string{"z": odd, "a": "1", odd: "", "m": "<>"}},
	}
	backing := persistence.NewStore()
	s := NewStore(backing, FullHistory)
	s.seq = 1<<40 - 1
	for i, in := range threats {
		stored, _, err := s.Add(in)
		if err != nil {
			t.Fatalf("%d: %v", i, err)
		}
		rec, affected, data := recordKeys(stored.Seq)
		var back Threat
		var list affectedList
		var app appData
		for k, r := range map[string]persistence.Reader{rec: &back, affected: &list} {
			if err := backing.Get(table, k, r); err != nil {
				t.Fatalf("%d: %s: %v", i, k, err)
			}
		}
		if err := backing.Get(table, data, &app); err != nil {
			t.Fatalf("%d: %s: %v", i, data, err)
		}
		back.Affected, back.AppData = list, app
		if want := normalized(stored); !reflect.DeepEqual(back, want) {
			t.Errorf("%d: read back\n %#v\nwant %#v", i, back, want)
		}
	}
	bad := sample("C3", "f1")
	bad.Affected[0].State = object.State{"ch": make(chan int)}
	if _, _, err := s.Add(bad); err == nil {
		t.Error("a threat capturing a channel was stored")
	}
}

// normalized is t as its records read back: empty lists, maps and states nil.
func normalized(t Threat) Threat {
	if len(t.Affected) == 0 {
		t.Affected = nil
	} else {
		t.Affected = append([]AffectedObject(nil), t.Affected...)
		for i := range t.Affected {
			if len(t.Affected[i].State) == 0 {
				t.Affected[i].State = nil
			}
		}
	}
	if len(t.AppData) == 0 {
		t.AppData = nil
	}
	return t
}

// TestThreatRecordsRejectMalformedInput: a reader meeting bytes its writer
// never writes fails the Get: a flag byte that is neither 0 nor 1, keys out
// of order, a count larger than the bytes left.
func TestThreatRecordsRejectMalformedInput(t *testing.T) {
	backing := persistence.NewStore()
	th, _ := (&Threat{Constraint: "C", UID: "u"}).AppendWire(nil)
	badFlags := append([]byte(nil), th...)
	badFlags[5] = 2 // after seq, "C", "" and the degree: the first instruction
	for name, c := range map[string]struct {
		rec  []byte
		into persistence.Reader
	}{
		"threat flags":   {badFlags, new(Threat)},
		"staleness flag": {[]byte{1, 1, 'a', 0, 2, 0, 0, 0}, new(affectedList)},
		"affected count": {[]byte{9, 1, 'a'}, new(affectedList)},
		"appdata order":  {[]byte{3, 1, 'b', 0, 1, 'a', 0}, new(appData)},
	} {
		if err := backing.Put(table, name, rawBytes(c.rec)); err != nil {
			t.Fatal(err)
		}
		if err := backing.Get(table, name, c.into); err == nil {
			t.Errorf("%s: %x decoded", name, c.rec)
		}
	}
}

// rawBytes is a record of exactly its bytes.
type rawBytes []byte

func (b rawBytes) AppendWire(dst []byte) ([]byte, bool) { return append(dst, b...), true }
