package gossip

import (
	"reflect"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

// Every gossip wire kind must survive the real-wire gob framing with all
// fields intact — gob silently drops unexported fields, so these tests pin
// the payload shapes.
func TestWireCodecGossipKinds(t *testing.T) {
	vv := replication.VersionVector{{Node: "n1", Count: 3}, {Node: "n2", Count: 7}}
	rec := replication.Record{
		ID:      "o1",
		Class:   "Reg",
		State:   object.State{"value": int64(9)},
		Version: 4,
		VV:      vv.Clone(),
		Info:    replication.Info{Home: "n1", Replicas: []transport.NodeID{"n1", "n2"}},
	}
	var bloom Filter
	bloom.Add(0xdeadbeef)
	bloom.Add(42)

	cases := []struct {
		name    string
		payload any
	}{
		{"digestMsg", digestMsg{
			Salt:    0x1234,
			Summary: Summary{Count: 2, Fold: 0xabcdef},
			Bloom:   bloom,
		}},
		{"digestReply-insync", digestReply{InSync: true}},
		{"digestReply-delta", digestReply{
			Summary: Summary{Count: 1, Fold: 7},
			Bloom:   bloom,
			Delta: map[object.ID]replication.DigestEntry{
				"o1": {VV: vv.Clone()},
				"o2": {VV: replication.VersionVector{{Node: "n3", Count: 1}}, Deleted: true},
			},
		}},
		{"pullMsg", pullMsg{IDs: []object.ID{"o1", "o2"}}},
		{"pullReply", pullReply{Records: []replication.Record{rec}}},
		{"pushMsg", pushMsg{Records: []replication.Record{rec}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := wiretransport.RoundTrip(tc.payload)
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			if !reflect.DeepEqual(out, tc.payload) {
				t.Fatalf("round trip:\n sent %#v\n got  %#v", tc.payload, out)
			}
		})
	}
}

// TestWireSizePositive pins the byte-accounting helper: registered payloads
// must measure > 0 bytes, and a delta-bearing reply must outweigh an in-sync
// one (the steady-state savings the metrics gate asserts).
func TestWireSizePositive(t *testing.T) {
	insync := wireSize(digestReply{InSync: true})
	if insync <= 0 {
		t.Fatalf("in-sync reply measured %d bytes", insync)
	}
	withDelta := wireSize(digestReply{Delta: map[object.ID]replication.DigestEntry{
		"o1": {VV: replication.VersionVector{{Node: "n1", Count: 1}}},
	}})
	if withDelta <= insync {
		t.Fatalf("delta reply %d bytes <= in-sync reply %d bytes", withDelta, insync)
	}
}
