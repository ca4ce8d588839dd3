package wiretransport

import (
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"dedisys/internal/transport"
)

// Payload types of the isolation test. isoSecret is deliberately never
// registered with gob; the isoLate types are registered but each is first
// sent only after a round of failed encodes.
type (
	isoGood   struct{ N int }
	isoBox    struct{ Inner any }
	isoSecret struct{ X int }
	isoLate0  struct{ A string }
	isoLate1  struct{ B []int }
	isoLate2  struct{ C map[string]int64 }
	isoLate3  struct{ D float64 }
)

func init() {
	gob.Register(isoGood{})
	gob.Register(isoBox{})
	gob.Register(isoLate0{})
	gob.Register(isoLate1{})
	gob.Register(isoLate2{})
	gob.Register(isoLate3{})
}

// TestEncodeFailureIsolation pins the rule that a payload which cannot be
// encoded fails its caller and nobody else: on one link, round after round,
// good sends are interleaved with an unregistered request payload, a
// registered wrapper around an unregistered value (gob emits the wrapper's
// type descriptor before it fails on the inner value), and handlers whose
// reply cannot be encoded; then a type the link has never carried is sent.
// Every good send must round-trip its value, and the link must never die.
func TestEncodeFailureIsolation(t *testing.T) {
	wa, wb := pair(t)
	wb.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil })
	wb.Handle("b", "secret-reply", func(transport.NodeID, any) (any, error) { return isoSecret{X: 1}, nil })
	wb.Handle("b", "boxed-secret-reply", func(transport.NodeID, any) (any, error) {
		return isoBox{Inner: isoSecret{X: 2}}, nil
	})
	ctx := context.Background()

	good := func(payload any) {
		t.Helper()
		resp, err := wa.Send(ctx, "a", "b", "echo", payload)
		if err != nil {
			t.Fatalf("good send %#v: %v", payload, err)
		}
		if !reflect.DeepEqual(resp, payload) {
			t.Fatalf("good send %#v came back as %#v", payload, resp)
		}
	}
	bad := func(kind string, payload any) {
		t.Helper()
		_, err := wa.Send(ctx, "a", "b", kind, payload)
		if err == nil {
			t.Fatalf("%s with %#v: want an encode error, got none", kind, payload)
		}
		if errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("%s with %#v: %v — an encode failure must not look like a dead link", kind, payload, err)
		}
	}

	late := []any{
		isoLate0{A: "first seen after round 0"},
		isoLate1{B: []int{1, 2, 3}},
		isoLate2{C: map[string]int64{"k": 7}},
		isoLate3{D: 2.5},
	}
	for round, fresh := range late {
		good(isoGood{N: round})
		bad("echo", isoSecret{X: round})
		good("between failures")
		bad("echo", isoBox{Inner: isoSecret{X: round}})
		good(isoBox{Inner: isoGood{N: round}})
		bad("secret-reply", round)
		good(int64(round))
		bad("boxed-secret-reply", round)
		good(isoBox{Inner: "after reply failures"})
		good(fresh)
		good(isoGood{N: -round})
	}
	if got := wa.Stats().Failures; got != 0 {
		t.Fatalf("failures = %d, want 0: an encode failure killed the link", got)
	}
	if got := wa.Stats().Retries; got != 0 {
		t.Fatalf("retries = %d, want 0", got)
	}
}
