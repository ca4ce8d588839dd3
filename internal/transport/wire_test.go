package transport

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestWireReaderNameTableIsBounded: a recurring name is allocated once per
// reader, and neither many names nor a long one can grow the table past its
// bounds — they still decode, as fresh strings.
func TestWireReaderNameTableIsBounded(t *testing.T) {
	var r WireReader
	name := func(s string) string {
		r.Reset(AppendWireString(nil, s))
		got := r.Name()
		if got != s || r.Err() != nil || r.Len() != 0 {
			t.Fatalf("Name() = %q, %v, %d bytes left; want %q", got, r.Err(), r.Len(), s)
		}
		return got
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

	if a, b := name("value"), name("value"); !same(a, b) {
		t.Fatal("a recurring name was allocated twice")
	}
	long := strings.Repeat("n", maxWireNameLen+1)
	if a, b := name(long), name(long); same(a, b) {
		t.Fatalf("a %d-byte name went into the table", len(long))
	}
	for i := 0; i < 2*maxWireNames; i++ {
		name(fmt.Sprint("name", i))
	}
	if len(r.names) != maxWireNames {
		t.Fatalf("the table holds %d names, want it to stop at %d", len(r.names), maxWireNames)
	}
	if a, b := name("value"), name("value"); !same(a, b) {
		t.Fatal("a name from before the table filled is no longer shared")
	}
}

// TestWireReaderFailureSticks: the first failure is kept, every later read
// returns a zero value, and a count is checked against the bytes that remain
// before anybody sizes an allocation by it.
func TestWireReaderFailureSticks(t *testing.T) {
	var r WireReader
	r.Reset(binary.AppendUvarint(nil, 1000)) // a count of 1000 and nothing after it
	if n := r.Count(1); n != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, %v; want 0 and a failure", n, r.Err())
	}
	first := r.Err()
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Varint() != 0 || r.Uint64() != 0 || r.String() != "" || r.Name() != "" || r.Count(1) != 0 {
		t.Fatal("a read after the failure returned data")
	}
	r.Fail("later")
	if r.Err() != first || r.Len() != 0 {
		t.Fatalf("Err = %v with %d bytes left, want the first failure (%v) and none", r.Err(), r.Len(), first)
	}
	if len(r.names) != 0 {
		t.Fatalf("a failed read put %q in the name table", r.names)
	}

	r.Reset([]byte{3, 'a', 'b', 'c', 'd'})
	if n := r.Count(2); n != 0 || r.Err() == nil {
		t.Fatalf("three 2-byte elements in 4 bytes: Count = %d, %v", n, r.Err())
	}
	r.Reset([]byte{2, 'a', 'b', 'c', 'd'})
	if n := r.Count(2); n != 2 || r.Err() != nil {
		t.Fatalf("two 2-byte elements in 4 bytes: Count = %d, %v", n, r.Err())
	}

	// A map header keeps nil and empty apart and gets the same check.
	for _, tc := range []struct {
		n     int
		isNil bool
	}{{0, true}, {0, false}, {2, false}} {
		r.Reset(append(AppendWireMapLen(nil, tc.n, tc.isNil), 'a', 'b', 'c', 'd'))
		if n, isNil := r.MapLen(2); n != tc.n || isNil != tc.isNil || r.Err() != nil {
			t.Fatalf("MapLen of (%d, nil %v) = %d, %v, %v", tc.n, tc.isNil, n, isNil, r.Err())
		}
	}
	r.Reset(append(AppendWireMapLen(nil, 3, false), 'a', 'b', 'c', 'd'))
	if n, _ := r.MapLen(2); n != 0 || r.Err() == nil {
		t.Fatalf("three 2-byte entries in 4 bytes: MapLen = %d, %v", n, r.Err())
	}
}
