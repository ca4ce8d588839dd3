package object

import (
	"reflect"
	"testing"

	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

func TestWireCodecObjectPayloads(t *testing.T) {
	for _, payload := range []any{
		ID("acct-1"),
		[]ID{"acct-1", "acct-2"},
		State{"name": "alice", "balance": 42.5, "visits": 7, "vip": true,
			"refs": []ID{"acct-2"}, "tags": []string{"a"}, "owner": ID("cust-1"), "closed": nil},
	} {
		out, err := wiretransport.RoundTrip(payload)
		if err != nil {
			t.Fatalf("round trip %T: %v", payload, err)
		}
		if !reflect.DeepEqual(out, payload) {
			t.Fatalf("round trip %T:\n sent %#v\n got  %#v", payload, payload, out)
		}
	}
}

// TestAttrsWireRoundTrip: every kind the form carries comes back as the
// dynamic type it went in as, after whatever was in the buffer before it; an
// empty list comes back nil, as gob gives it. (That the form agrees with gob
// on all of it is replication's TestWireCodecReplicationPayloads.)
func TestAttrsWireRoundTrip(t *testing.T) {
	for _, st := range []State{
		nil,
		{},
		{"nil": nil, "t": true, "f": false, "s": "str", "i": -7, "i64": int64(7), "fl": 7.0,
			"id": ID("o1"), "ids": []ID{"o2", ""}, "strs": []string{"x"}, "": ""},
	} {
		const prefix = "head"
		a := AttrsOf(st)
		b, ok := a.AppendWire([]byte(prefix))
		if !ok || string(b[:len(prefix)]) != prefix {
			t.Fatalf("AppendWire(%#v) = %q, %v", a, b, ok)
		}
		var r transport.WireReader
		r.Reset(b[len(prefix):])
		got := ReadAttrsWire(&r)
		want := a
		if len(a) == 0 {
			want = nil
		}
		if r.Err() != nil || r.Len() != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("sent %#v\n got %#v, err %v, %d bytes left", a, got, r.Err(), r.Len())
		}
	}
}

// TestAttrsWireDeclines: a value outside the documented kinds makes the form
// decline, and the caller gets its buffer back as it handed it in.
func TestAttrsWireDeclines(t *testing.T) {
	const prefix = "head"
	for _, v := range []any{int32(1), uint8(2), []any{"a"}, map[string]any{"k": 1}, State{"k": 1}, []byte("raw")} {
		got, ok := AttrsOf(State{"a": int64(1), "m": v, "z": "after"}).AppendWire([]byte(prefix))
		if ok || string(got) != prefix {
			t.Fatalf("AppendWire with a %T value = %q, %v; want the prefix back and false", v, got, ok)
		}
	}
}
