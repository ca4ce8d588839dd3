package threat

import (
	"bytes"
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
	golden := goldenRecords(t)
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

// goldenRecords reads testdata/threat_records.golden: each record's hex
// under its key.
func goldenRecords(tb testing.TB) map[string]string {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "threat_records.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if key, hexed, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			golden[key] = hexed
		}
	}
	return golden
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

// storedRecord is one of a threat's three records: what Add writes and a
// store rebuilt from its table would read back.
type storedRecord interface {
	persistence.Record
	persistence.Reader
}

// readWhole reads data into rec and reports whether it read cleanly and to
// the end, as Get demands.
func readWhole(rec storedRecord, data []byte) bool {
	var r transport.WireReader
	r.Reset(data)
	rec.ReadWire(&r)
	return r.Err() == nil && r.Len() == 0
}

// FuzzThreatRecords feeds arbitrary bytes to the readers of a threat's three
// records, kind choosing the reader (the threat, its affected list, its
// application data), seeded with the records of
// testdata/threat_records.golden. A reader must fail or return, never panic,
// and a record it reads whole must be a fixed point: it re-encodes (never
// declining) to bytes that read back whole into an equal record, one that
// encodes to the same bytes. Equal is on the bytes, not DeepEqual, because a
// NaN attribute of a captured state is not equal to itself.
func FuzzThreatRecords(f *testing.F) {
	for key, hexed := range goldenRecords(f) {
		data, err := hex.DecodeString(hexed)
		if err != nil {
			f.Fatalf("%s: %v", key, err)
		}
		kind := uint8(0)
		if strings.HasSuffix(key, suffixAffected) {
			kind = 1
		} else if strings.HasSuffix(key, suffixAppData) {
			kind = 2
		}
		f.Add(kind, data)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		fresh := func() storedRecord {
			switch kind % 3 {
			case 1:
				return new(affectedList)
			case 2:
				return new(appData)
			}
			return new(Threat)
		}
		got := fresh()
		if !readWhole(got, data) {
			return
		}
		again, ok := got.AppendWire(nil)
		if !ok {
			t.Fatalf("read record %#v declines to encode", got)
		}
		back := fresh()
		if !readWhole(back, again) {
			t.Fatalf("re-encoded record %x does not read back whole", again)
		}
		if final, _ := back.AppendWire(nil); !bytes.Equal(final, again) {
			t.Fatalf("not a fixed point:\n first  %x\n second %x", again, final)
		}
	})
}
