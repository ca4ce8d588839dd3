package detect

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"slices"
	"testing"

	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

func TestWireCodecHeartbeat(t *testing.T) {
	hb := Heartbeat{Seq: 42, Known: []transport.NodeID{"a", "b", "c"}}
	out, err := wiretransport.RoundTrip(hb)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !reflect.DeepEqual(out, hb) {
		t.Fatalf("round trip:\n sent %#v\n got  %#v", hb, out)
	}
}

// FuzzHeartbeat feeds gob bytes to the heartbeat handler, seeded with the gob
// encodings of a heartbeat that names the whole group and of an empty one.
// Bytes that decode into a Heartbeat must not panic the detector, and its
// view must still ascend strictly and hold itself and the sender.
func FuzzHeartbeat(f *testing.F) {
	for _, hb := range []Heartbeat{{Seq: 42, Known: []transport.NodeID{"n1", "n2", "n3"}}, {}} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(hb); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hb Heartbeat
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&hb) != nil {
			return
		}
		net, ids := newDetectorNet(t, 2)
		d, err := New(net, ids[0], Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.handleHeartbeat(ids[1], hb); err != nil {
			t.Fatal(err)
		}
		_, view := d.Current()
		for i := 1; i < len(view); i++ {
			if view[i-1] >= view[i] {
				t.Fatalf("view %v does not ascend strictly", view)
			}
		}
		if !slices.Contains(view, ids[0]) || !slices.Contains(view, ids[1]) {
			t.Fatalf("view %v lacks %s or %s", view, ids[0], ids[1])
		}
	})
}
