package replication

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"dedisys/internal/transport"
)

// Property-based tests of the version vector algebra, which the whole
// missed-update and conflict-detection machinery rests on.

var vvNodes = []transport.NodeID{"a", "b", "c", "d"}

// vvGen draws a vector over vvNodes, each node present with half a chance and
// a count of 0 to 3, so zero components occur; one in ten is nil and one in
// ten empty.
func vvGen(r *rand.Rand) VersionVector {
	switch r.Intn(10) {
	case 0:
		return nil
	case 1:
		return VersionVector{}
	}
	vv := VersionVector{}
	for _, n := range vvNodes {
		if r.Intn(2) == 0 {
			vv = append(vv, Component{Node: n, Count: int64(r.Intn(4))})
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

// vvMap is the reference model of a vector: the map a vector was before it
// became a sorted list, nil for nil.
func vvMap(v VersionVector) map[transport.NodeID]int64 {
	if v == nil {
		return nil
	}
	m := make(map[transport.NodeID]int64, len(v))
	for _, c := range v {
		m[c.Node] = c.Count
	}
	return m
}

// vvFromMap builds the vector a model map stands for.
func vvFromMap(m map[transport.NodeID]int64) VersionVector {
	if m == nil {
		return nil
	}
	v := make(VersionVector, 0, len(m))
	for n, c := range m {
		v = append(v, Component{Node: n, Count: c})
	}
	slices.SortFunc(v, func(a, b Component) int { return cmp.Compare(a.Node, b.Node) })
	return v
}

// The model's operations: the map-based vector's methods as they were.

func modelCopy(m map[transport.NodeID]int64) map[transport.NodeID]int64 {
	out := make(map[transport.NodeID]int64, len(m))
	for k, n := range m {
		out[k] = n
	}
	return out
}

func modelBumped(m map[transport.NodeID]int64, n transport.NodeID) map[transport.NodeID]int64 {
	out := modelCopy(m)
	out[n]++
	return out
}

// modelMerged also reports whether o added nothing, when the result is m.
func modelMerged(m, o map[transport.NodeID]int64) (out map[transport.NodeID]int64, same bool) {
	out, same = m, true
	for k, n := range o {
		if n > out[k] {
			if same {
				out, same = modelCopy(m), false
			}
			out[k] = n
		}
	}
	return out, same
}

func modelCompare(m, o map[transport.NodeID]int64) (int, bool) {
	less, greater := false, false
	for k, n := range m {
		greater = greater || n > o[k]
	}
	for k, n := range o {
		less = less || n > m[k]
	}
	switch {
	case less && greater:
		return 0, false
	case greater:
		return 1, true
	case less:
		return -1, true
	}
	return 0, true
}

func modelTotal(m map[transport.NodeID]int64) int64 {
	var t int64
	for _, n := range m {
		t += n
	}
	return t
}

// modelWire is the self-encoded form the map-based vector wrote: a map header,
// then ID and counter per component in byte order of the IDs.
func modelWire(m map[transport.NodeID]int64) []byte {
	out := transport.AppendWireMapLen(nil, len(m), m == nil)
	keys := make([]transport.NodeID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		out = binary.AppendVarint(transport.AppendWireString(out, string(k)), m[k])
	}
	return out
}

// wellFormed reports whether the vector's nodes strictly ascend: sorted and
// free of duplicates.
func wellFormed(v VersionVector) bool {
	for i := 1; i < len(v); i++ {
		if v[i].Node <= v[i-1].Node {
			return false
		}
	}
	return true
}

// sameVector reports whether two non-empty vectors are one slice, not merely
// equal ones.
func sameVector(a, b VersionVector) bool {
	return len(a) > 0 && len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// TestVectorMatchesMapModel checks every method of the sorted-list vector
// against the map it replaced, over fixed edge cases — nil and empty, zero
// components, a node that sorts before every other — paired with each other
// and with seeded random vectors: the results, the wire bytes (which must not
// change: they are in every replica record too), the order and uniqueness of
// every result, and that no method writes its receiver or its argument.
func TestVectorMatchesMapModel(t *testing.T) {
	fixed := []VersionVector{
		nil,
		{},
		{{Node: "a", Count: 0}},
		{{Node: "b", Count: 1}},
		{{Node: "b", Count: 0}, {Node: "d", Count: 2}},
		{{Node: "a", Count: 1}, {Node: "c", Count: 0}},
		{{Node: "a", Count: 3}, {Node: "b", Count: 3}, {Node: "c", Count: 3}, {Node: "d", Count: 3}},
	}
	r := rand.New(rand.NewSource(1))
	var pairs [][2]VersionVector
	for _, a := range fixed {
		for _, b := range fixed {
			pairs = append(pairs, [2]VersionVector{a, b})
		}
	}
	for i := 0; i < 2000; i++ {
		pairs = append(pairs, [2]VersionVector{vvGen(r), vvGen(r)})
	}
	probes := append([]transport.NodeID{"", "0", "e"}, vvNodes...) // "" and "0" sort first, "e" last
	for _, p := range pairs {
		a, b := p[0], p[1]
		a0, b0 := slices.Clone(a), slices.Clone(b)
		ma, mb := vvMap(a), vvMap(b)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("a=%v b=%v: %s", a, b, fmt.Sprintf(format, args...))
		}

		for _, n := range probes {
			if got := a.Get(n); got != ma[n] {
				fail("Get(%q) = %d, model %d", n, got, ma[n])
			}
			bumped := a.Bumped(n)
			if !wellFormed(bumped) || !reflect.DeepEqual(vvMap(bumped), modelBumped(ma, n)) || sameVector(bumped, a) {
				fail("Bumped(%q) = %v, model %v", n, bumped, modelBumped(ma, n))
			}
		}
		merged := a.Merged(b)
		want, same := modelMerged(ma, mb)
		if !wellFormed(merged) || !reflect.DeepEqual(vvMap(merged), want) {
			fail("Merged = %v, model %v", merged, want)
		}
		// The receiver itself when the argument adds nothing, nil included; a
		// slice of its own otherwise.
		if same && ((merged == nil) != (a == nil) || len(merged) != len(a) || len(a) > 0 && !sameVector(merged, a)) {
			fail("Merged that adds nothing returned %v, not the receiver", merged)
		}
		if !same && (sameVector(merged, a) || sameVector(merged, b)) {
			fail("Merged that adds shares an operand's slice")
		}
		order, ok := a.Compare(b)
		if wantOrder, wantOK := modelCompare(ma, mb); order != wantOrder || ok != wantOK {
			fail("Compare = %d,%v, model %d,%v", order, ok, wantOrder, wantOK)
		}
		if got := a.Total(); got != modelTotal(ma) {
			fail("Total = %d, model %d", got, modelTotal(ma))
		}
		clone := a.Clone()
		if clone == nil || !reflect.DeepEqual(vvMap(clone), modelCopy(ma)) || sameVector(clone, a) {
			fail("Clone = %#v", clone)
		}

		data := a.appendWire(nil)
		if !bytes.Equal(data, modelWire(ma)) {
			fail("appendWire = %x, model %x", data, modelWire(ma))
		}
		var wr transport.WireReader
		wr.Reset(data)
		back := readVectorWire(&wr)
		if wr.Err() != nil || wr.Len() != 0 {
			fail("readVectorWire: %v, %d bytes left", wr.Err(), wr.Len())
		}
		if len(a) == 0 && back != nil || len(a) > 0 && !reflect.DeepEqual(back, a) {
			fail("wire round trip = %#v", back) // an empty vector decodes nil, as through gob
		}

		if !reflect.DeepEqual(a, a0) || !reflect.DeepEqual(b, b0) {
			fail("a method wrote an operand: a=%v b=%v after", a, b)
		}
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
// slice of its own, and Merged returns the receiver itself exactly when the
// argument adds nothing to it. reflect.DeepEqual against copies taken before
// the call also catches a zero component added to either vector.
func TestQuickVectorMethodsWriteNothing(t *testing.T) {
	f := func(a, b VersionVector) bool {
		a0, b0 := slices.Clone(a), slices.Clone(b)
		bumped := a.Bumped("b")
		merged := a.Merged(b)
		a.Compare(b)
		a.Total()
		a.appendWire(nil)
		if !reflect.DeepEqual(a, a0) || !reflect.DeepEqual(b, b0) {
			return false
		}
		if sameVector(bumped, a) {
			return false
		}
		cmp, ok := b.Compare(a)
		adds := !ok || cmp > 0
		if adds == (len(merged) == len(a) && (len(a) == 0 || sameVector(merged, a))) || sameVector(merged, b) {
			return false
		}
		// The results are as free of their operands as the operands are of
		// them: writing a result leaves both operands alone.
		for i := range bumped {
			bumped[i].Count += 7
		}
		if adds {
			for i := range merged {
				merged[i].Count += 7
			}
		}
		return reflect.DeepEqual(a, a0) && reflect.DeepEqual(b, b0)
	}
	if err := quick.Check(f, vvConfig()); err != nil {
		t.Fatal(err)
	}
	var none VersionVector
	if got := none.Bumped("a"); !reflect.DeepEqual(got, VersionVector{{Node: "a", Count: 1}}) {
		t.Fatalf("nil.Bumped = %v", got)
	}
	if got := none.Merged(VersionVector{{Node: "a", Count: 2}}); !reflect.DeepEqual(got, VersionVector{{Node: "a", Count: 2}}) {
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
