package replication

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dedisys/internal/persistence"
	"dedisys/internal/transport"
)

// Property-based tests of the version vector algebra, which the whole
// missed-update and conflict-detection machinery rests on.

var vvNodes = []transport.NodeID{"a", "b", "c"}

func vvGen(r *rand.Rand) VersionVector {
	vv := VersionVector{}
	for _, n := range vvNodes {
		if r.Intn(2) == 0 {
			vv[n] = int64(r.Intn(4))
		}
	}
	return vv
}

func vvConfig() *quick.Config {
	return &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(vvGen(r))
			}
		},
	}
}

func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b VersionVector) bool {
		ab, okAB := a.Compare(b)
		ba, okBA := b.Compare(a)
		if okAB != okBA {
			return false
		}
		if !okAB {
			return true // both concurrent
		}
		return ab == -ba
	}
	if err := quick.Check(f, vvConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareReflexive(t *testing.T) {
	f := func(a VersionVector) bool {
		cmp, ok := a.Compare(a)
		return ok && cmp == 0
	}
	if err := quick.Check(f, vvConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeDominatesBoth(t *testing.T) {
	f := func(a, b VersionVector) bool {
		m := a.Merged(b)
		cmpA, okA := m.Compare(a)
		cmpB, okB := m.Compare(b)
		return okA && okB && cmpA >= 0 && cmpB >= 0
	}
	if err := quick.Check(f, vvConfig()); err != nil {
		t.Fatal(err)
	}
}

// vvEqual reports component-wise equality (an absent component is zero).
func vvEqual(a, b VersionVector) bool {
	cmp, ok := a.Compare(b)
	return ok && cmp == 0
}

func TestQuickMergeAssociative(t *testing.T) {
	f := func(a, b, c VersionVector) bool {
		return vvEqual(a.Merged(b).Merged(c), a.Merged(b.Merged(c)))
	}
	if err := quick.Check(f, vvConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeCommutativeIdempotent(t *testing.T) {
	comm := func(a, b VersionVector) bool { return vvEqual(a.Merged(b), b.Merged(a)) }
	if err := quick.Check(comm, vvConfig()); err != nil {
		t.Fatalf("commutativity: %v", err)
	}
	idem := func(a VersionVector) bool { return vvEqual(a.Merged(a), a) }
	if err := quick.Check(idem, vvConfig()); err != nil {
		t.Fatalf("idempotence: %v", err)
	}
}

func TestQuickBumpStrictlyDominates(t *testing.T) {
	f := func(a VersionVector) bool {
		b := a.Bumped("a")
		cmp, ok := b.Compare(a)
		return ok && cmp == 1 && b.Total() == a.Total()+1
	}
	if err := quick.Check(f, vvConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVectorMethodsWriteNothing is the never-written rule as a property:
// no method writes its receiver or its argument, the result of Bumped is a
// map of its own, and Merged returns the receiver itself exactly when the
// argument adds nothing to it. reflect.DeepEqual against copies taken before
// the call also catches a zero component added to either map.
func TestQuickVectorMethodsWriteNothing(t *testing.T) {
	f := func(a, b VersionVector) bool {
		a0, b0 := a.Clone(), b.Clone()
		bumped := a.Bumped("b")
		merged := a.Merged(b)
		a.Compare(b)
		a.Total()
		if _, err := a.MarshalJSON(); err != nil {
			return false
		}
		if !reflect.DeepEqual(a, a0) || !reflect.DeepEqual(b, b0) {
			return false
		}
		if sameMap(bumped, a) {
			return false
		}
		cmp, ok := b.Compare(a)
		adds := !ok || cmp > 0
		if sameMap(merged, a) == adds || sameMap(merged, b) {
			return false
		}
		// The results are as free of their operands as the operands are of
		// them: writing a result leaves both operands alone.
		bumped["c"] += 7
		if adds {
			merged["c"] += 7
		}
		return reflect.DeepEqual(a, a0) && reflect.DeepEqual(b, b0)
	}
	if err := quick.Check(f, vvConfig()); err != nil {
		t.Fatal(err)
	}
	var none VersionVector
	if got := none.Bumped("a"); !reflect.DeepEqual(got, VersionVector{"a": 1}) {
		t.Fatalf("nil.Bumped = %v", got)
	}
	if got := none.Merged(VersionVector{"a": 2}); !reflect.DeepEqual(got, VersionVector{"a": 2}) {
		t.Fatalf("nil.Merged = %v", got)
	}
	if got := none.Merged(nil); got != nil {
		t.Fatalf("nil.Merged(nil) = %v", got)
	}
}

func TestQuickCompareConsistentWithTotals(t *testing.T) {
	// If a strictly dominates b, its total update count is at least b's.
	f := func(a, b VersionVector) bool {
		cmp, ok := a.Compare(b)
		if !ok || cmp != 1 {
			return true
		}
		return a.Total() >= b.Total()
	}
	if err := quick.Check(f, vvConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestVersionVectorJSONMatchesEncodingJSON holds the hand-written encoder to
// encoding/json's output for the underlying map, byte for byte — the stored
// replica-meta records must not change — directly, appended after a prefix,
// through the store's self-encoding path, and embedded in a struct; and the
// store must decode what it stored.
func TestVersionVectorJSONMatchesEncodingJSON(t *testing.T) {
	nine := VersionVector{}
	for i := 0; i < 9; i++ {
		nine[transport.NodeID(fmt.Sprintf("n%d", 9-i))] = int64(i) * 1_000_000_007
	}
	cases := map[string]VersionVector{
		"nil":      nil,
		"empty":    {},
		"one":      {"n1": 1},
		"three":    {"n3": 3, "n1": -1, "n2": math.MaxInt64},
		"nine":     nine,
		"escaping": {`q"uote`: 1, `back\slash`: 2, "<lt": 3, "gt>": 4, "a&b": 5, "ünï": 6, "\x00\x1f\n\t\b\f\r": 7, "  ": 8, "bad\xffutf8": 9, "\x7f": 10, "": 11},
	}
	store := persistence.NewStore()
	for name, vv := range cases {
		want, err := json.Marshal(map[transport.NodeID]int64(vv))
		if err != nil {
			t.Fatal(err)
		}
		got, err := vv.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: MarshalJSON\n got %s\nwant %s", name, got, want)
		}
		const prefix = `{"vv":`
		if got, err := vv.AppendJSON([]byte(prefix)); err != nil || string(got) != prefix+string(want) {
			t.Errorf("%s: AppendJSON after %s\n got %s, %v\nwant %s%s", name, prefix, got, err, prefix, want)
		}
		if err := store.Put("t", name, vv); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var raw json.RawMessage
		if err := store.Get("t", name, &raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s: stored\n got %s\nwant %s", name, raw, want)
		}
		var back VersionVector
		if err := store.Get("t", name, &back); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		// Invalid UTF-8 in a key does not survive any JSON round trip.
		if name != "escaping" && !reflect.DeepEqual(back, vv) {
			t.Errorf("%s: decoded %v, want %v", name, back, vv)
		}
		if name == "escaping" && len(back) != len(vv) {
			t.Errorf("%s: decoded %d entries, want %d", name, len(back), len(vv))
		}
		entry, err := json.Marshal(HistoryEntry{Version: 7, VV: vv})
		if err != nil {
			t.Fatal(err)
		}
		if wantEntry := fmt.Sprintf(`{"state":null,"version":7,"vv":%s}`, want); string(entry) != wantEntry {
			t.Errorf("%s: embedded\n got %s\nwant %s", name, entry, wantEntry)
		}
	}
}
