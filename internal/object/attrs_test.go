package object

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dedisys/internal/transport"
)

// modelSeed seeds the draws of TestAttrsMatchesMapModel. The golden table in
// testdata/attrs_wire.golden holds, per draw, the wire bytes the map form's
// encoder wrote for it before Attrs replaced it; a change to drawState or to
// the seed invalidates the table.
const modelSeed = 44

// modelDraws is the number of states the model test draws.
const modelDraws = 400

// drawNames are the attribute names a drawn state picks from: the empty name,
// names that differ only in case or in a byte beyond ASCII, and names
// encoding/json escapes, so that byte order and JSON order are exercised.
var drawNames = []string{
	"", "a", "b", "value", "Value", "seats", "sold", "refs", "tags", "owner",
	"z9", "ünï", "bad\xffutf8", `q"uote`, "<lt", "\x00nul", "line\u2028sep",
}

// drawStrings are the string values and list elements a draw picks from.
var drawStrings = []string{"", "x", "alice", "VIE<->GRZ & back", "\x00\x1f\n", "bad\xffutf8", "ünï", `back\slash`}

// drawState draws one state: nil or empty one time in ten each, otherwise
// one to ten attributes of every value kind State documents, and now and
// then a nested value, which the wire form declines.
func drawState(r *rand.Rand) State {
	switch r.IntN(10) {
	case 0:
		return nil
	case 1:
		return State{}
	}
	s := State{}
	for n := 1 + r.IntN(10); len(s) < n; {
		s[drawNames[r.IntN(len(drawNames))]] = drawValue(r)
	}
	return s
}

func drawValue(r *rand.Rand) any {
	str := func() string { return drawStrings[r.IntN(len(drawStrings))] }
	switch r.IntN(12) {
	case 0:
		return nil
	case 1:
		return r.IntN(2) == 0
	case 2:
		return str()
	case 3:
		return int(r.Int64()) >> r.IntN(64)
	case 4:
		return int64(r.Uint64()) >> r.IntN(64)
	case 5:
		return [...]float64{0, math.Copysign(0, -1), 12.5, -1e21, 1e-7, 70}[r.IntN(6)]
	case 6:
		return ID(str())
	case 7:
		switch n := r.IntN(4); n {
		case 0:
			return []ID(nil)
		default:
			ids := make([]ID, n-1)
			for i := range ids {
				ids[i] = ID(str())
			}
			return ids
		}
	case 8:
		switch n := r.IntN(4); n {
		case 0:
			return []string(nil)
		default:
			list := make([]string, n-1)
			for i := range list {
				list[i] = str()
			}
			return list
		}
	case 9:
		if r.IntN(4) == 0 {
			return []any{str(), int64(1), nil}
		}
		return int64(r.IntN(256))
	case 10:
		if r.IntN(4) == 0 {
			return map[string]any{"k": str()}
		}
		return ID("o" + str())
	default:
		return r.Float64() * 1e6
	}
}

// Nested values a State may hold although the wire form declines them; gob
// carries them once their types are registered, which only this test does.
func init() {
	gob.Register(map[string]any(nil))
	gob.Register([]any(nil))
}

// readGolden returns the lines of testdata/attrs_wire.golden after its
// comment header.
func readGolden(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "attrs_wire.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if len(lines) != modelDraws {
		t.Fatalf("golden table has %d lines, want %d", len(lines), modelDraws)
	}
	return lines
}

// gobRoundTrip sends v, a struct value, through gob and back into out.
func gobRoundTrip(t *testing.T, v, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// orEmpty is s, or an empty map for nil: Attrs.Map never returns nil.
func orEmpty(s State) State {
	if s == nil {
		return State{}
	}
	return s
}

// TestAttrsMatchesMapModel checks every Attrs method against the map it
// replaced, over seeded random states (nil, empty, and one to ten attributes
// of every documented value kind): the list's order, Get and Map, a Set on a
// fresh and on a shared entity, the wire bytes against the golden table the
// map's encoder wrote — from the list, from the map (State.AppendWire) and
// from an entity — the wire round trip to the list and to the map, and gob,
// which must carry the list as it carried the map.
func TestAttrsMatchesMapModel(t *testing.T) {
	golden := readGolden(t)
	r := rand.New(rand.NewPCG(modelSeed, modelSeed))
	sets := rand.New(rand.NewPCG(modelSeed, 0)) // apart: the draws must match the table
	for i := 0; i < modelDraws; i++ {
		s := drawState(r)
		a := AttrsOf(s)
		if (a == nil) != (s == nil) || len(a) != len(s) {
			t.Fatalf("draw %d: AttrsOf(%#v) = %#v", i, s, a)
		}
		for j := range a {
			if j > 0 && a[j-1].Name >= a[j].Name {
				t.Fatalf("draw %d: names not strictly ascending: %q, %q", i, a[j-1].Name, a[j].Name)
			}
		}
		held := s.Clone() // what the map form held: lists copied, a nil one made empty
		for _, name := range drawNames {
			want, present := held[name]
			if got, ok := a.Get(name); ok != present || !reflect.DeepEqual(got, want) {
				t.Fatalf("draw %d: Get(%q) = %#v, %v; the map holds %#v, %v", i, name, got, ok, want, present)
			}
		}
		if got := a.Map(); !reflect.DeepEqual(got, orEmpty(held)) {
			t.Fatalf("draw %d: Map() = %#v, want %#v", i, got, s)
		}

		// A Set on an entity that owns its list, and on one that shares it,
		// against the same Set on a copy of the map; the shared list stays.
		name, value := drawNames[sets.IntN(len(drawNames))], drawValue(sets)
		model := orEmpty(held.Clone())
		model[name] = value
		own, shared := New("C", "id", s), New("C", "id", nil)
		shared.Restore(a, 1)
		for _, e := range []*Entity{own, shared} {
			e.Set(name, value)
			if got := e.Snapshot(); !reflect.DeepEqual(got, model.Clone()) || e.Version() != 2 {
				t.Fatalf("draw %d: Set(%q, %#v) holds %#v v%d, want %#v", i, name, value, got, e.Version(), model)
			}
		}
		if !reflect.DeepEqual(a.Map(), orEmpty(held)) {
			t.Fatalf("draw %d: Set on the entity that shares the list wrote it: %#v", i, a)
		}

		// Wire: the map's bytes, from the list, the map and an entity holding
		// the list, and back to the list (an empty one nil) and to the map.
		wire, ok := a.AppendWire([]byte("x"))
		holder := New("C", "id", nil)
		holder.Restore(a, 1)
		for form, encode := range map[string]func([]byte) ([]byte, bool){"State": s.AppendWire, "Entity": holder.AppendWire} {
			if got, ok2 := encode([]byte("x")); ok2 != ok || string(got) != string(wire) {
				t.Fatalf("draw %d: %s.AppendWire = %x, %v; Attrs.AppendWire = %x, %v", i, form, got, ok2, wire, ok)
			}
		}
		if golden[i] == "declined" {
			if ok || string(wire) != "x" {
				t.Fatalf("draw %d: AppendWire accepted %#v, which the map form declined", i, a)
			}
		} else {
			if !ok || hex.EncodeToString(wire[1:]) != golden[i] {
				t.Fatalf("draw %d: AppendWire = %x, %v\n the map form wrote %s", i, wire[1:], ok, golden[i])
			}
			var sr transport.WireReader
			sr.Reset(wire[1:])
			var st State
			st.ReadWire(&sr)
			var rd transport.WireReader
			rd.Reset(wire[1:])
			back := ReadAttrsWire(&rd)
			var gobBack struct{ A Attrs }
			gobRoundTrip(t, struct{ A Attrs }{a}, &gobBack)
			if rd.Err() != nil || rd.Len() != 0 || !reflect.DeepEqual(back, gobBack.A) {
				t.Fatalf("draw %d: the wire gives %#v (%v, %d bytes left), gob %#v", i, back, rd.Err(), rd.Len(), gobBack.A)
			}
			var wantState State // what the list gives an application (nil for none)
			if back != nil {
				wantState = back.Map()
			}
			if sr.Err() != nil || sr.Len() != 0 || !reflect.DeepEqual(st, wantState) {
				t.Fatalf("draw %d: State.ReadWire gives %#v (%v, %d bytes left), the list %#v", i, st, sr.Err(), sr.Len(), back)
			}
		}

		// gob carries the list as it carried the map.
		var viaList struct{ A Attrs }
		var viaMap struct{ S State }
		gobRoundTrip(t, struct{ A Attrs }{a}, &viaList)
		gobRoundTrip(t, struct{ S State }{s}, &viaMap)
		if !reflect.DeepEqual(viaList.A.Map(), orEmpty(viaMap.S.Clone())) {
			t.Fatalf("draw %d: gob gives the list %#v, the map %#v", i, viaList.A, viaMap.S)
		}
	}
}

// TestSetAllocatesOnce: a Set on an entity that shares its list, or that
// adds a name, builds the new list in one allocation; a Set of a present
// name on a list the entity owns allocates nothing.
func TestSetAllocatesOnce(t *testing.T) {
	e := New("C", "id", State{"a": int64(1), "m": "x", "z": true})
	base := AttrsOf(State{"a": int64(1), "m": "x", "z": true}) // never written: Set inserts into a new list
	for _, tc := range []struct {
		name string
		run  func()
		want float64
	}{
		{"present name, own list", func() { e.Set("m", int64(7)) }, 0},
		{"present name, shared list", func() { e.Share(); e.Set("m", int64(7)) }, 1},
		{"new name, own list", func() { e.attrs, e.shared = base, false; e.Set("n", int64(7)) }, 1},
		{"new name, shared list", func() { e.Restore(base, 1); e.Set("n", int64(7)) }, 1},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got != tc.want {
			t.Errorf("%s: %.1f allocations, want %.0f", tc.name, got, tc.want)
		}
	}
}
