package wiretransport

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

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

// isoSelf encodes itself (transport.WirePayload) unless Decline is set; it is
// registered with gob too, which is how a declining value travels. The wire
// form has no room for Decline: whatever arrives self-encoded accepted.
type isoSelf struct {
	N       int64
	Text    string
	Decline bool
}

const isoSelfTag = 0xf0

func (isoSelf) WireTag() byte { return isoSelfTag }

func (p isoSelf) AppendWire(dst []byte) ([]byte, bool) {
	if p.Decline {
		return dst, false
	}
	return transport.AppendWireString(binary.AppendVarint(dst, p.N), p.Text), true
}

func init() {
	gob.Register(isoGood{})
	gob.Register(isoBox{})
	gob.Register(isoLate0{})
	gob.Register(isoLate1{})
	gob.Register(isoLate2{})
	gob.Register(isoLate3{})
	gob.Register(isoSelf{})
	transport.RegisterWire(isoSelfTag, func(r *transport.WireReader) any {
		n := r.Varint()
		return isoSelf{N: n, Text: r.String()}
	})
}

// TestEncodeFailureIsolation pins the rule that a payload which cannot be
// encoded fails its caller and nobody else: on one link, round after round,
// good sends are interleaved with an unregistered request payload, a
// registered wrapper around an unregistered value (gob emits the wrapper's
// type descriptor before it fails on the inner value), and handlers whose
// reply cannot be encoded; then a payload that starts to encode itself and
// declines (its bytes are in the scratch when gob takes over), and right
// after it a type the gob stream has never carried, descriptors and all.
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
		good(isoSelf{N: int64(round), Text: "self-encoded"})
		good(isoSelf{N: int64(round), Text: "declined", Decline: true})
		good(fresh)
		good(isoGood{N: -round})
	}
	if got := counter(t, wa.Observer(), "transport.failures"); got != 0 {
		t.Fatalf("failures = %d, want 0: an encode failure killed the link", got)
	}
}

// countFrames walks one recorded byte stream by its length prefixes and
// counts the stream-open markers and the self-encoded frames in it.
func countFrames(t *testing.T, stream []byte) (frames, opens, self int) {
	t.Helper()
	for off := 0; off < len(stream); frames++ {
		prefix := binary.BigEndian.Uint32(stream[off:])
		if prefix&streamOpen != 0 {
			opens++
		}
		if prefix&selfEncoded != 0 {
			self++
		}
		off += 4 + int(prefix&^prefixFlags)
	}
	return frames, opens, self
}

// TestInterleavedFrameBodies puts both frame bodies on one link at once (run
// with -race): eight goroutines alternate a payload that encodes itself, a gob
// payload and a payload that declines every other time, against a peer that
// echoes each back the same way. Self-encoded frames touch neither gob stream,
// so every reply must match its request, the link must never die, and each
// direction must open its gob stream exactly once.
func TestInterleavedFrameBodies(t *testing.T) {
	dir := t.TempDir()
	sock := func(name string) string { return filepath.Join(dir, name+".sock") }
	tp := startTap(t, sock("tap"), sock("b"))
	wa, err := New("a", map[transport.NodeID]string{"a": "unix:" + sock("a"), "b": "unix:" + sock("tap")})
	if err != nil {
		t.Fatal(err)
	}
	defer wa.Close()
	wb, err := New("b", map[transport.NodeID]string{"a": "unix:" + sock("a"), "b": "unix:" + sock("b")})
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.Start(); err != nil {
		t.Fatal(err)
	}
	defer wb.Close()
	wb.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil })
	ctx := contextWithTimeout(t, 30*time.Second)

	// The tap forwards one connection: dial it before the workers race to.
	if _, err := wa.Send(ctx, "a", "b", "echo", "warm"); err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := int64(g*rounds + i)
				for _, payload := range []any{
					isoSelf{N: n, Text: fmt.Sprint("self ", n)},
					isoGood{N: int(n)},
					isoSelf{N: -n, Text: "sometimes", Decline: i%2 == 1},
				} {
					resp, err := wa.Send(ctx, "a", "b", "echo", payload)
					if err != nil || resp != payload {
						t.Errorf("worker %d round %d: sent %#v, got %#v, %v", g, i, payload, resp, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := counter(t, wa.Observer(), "transport.failures"); got != 0 {
		t.Fatalf("failures = %d, want 0", got)
	}
	const sends = 1 + workers*rounds*3
	const wantSelf = workers * (rounds + rounds/2) // every first payload, every other third
	for dir, stream := range tp.streams() {
		frames, opens, self := countFrames(t, stream)
		if frames != sends || opens != 1 || self != wantSelf {
			t.Fatalf("stream %d: %d frames, %d stream-open markers, %d self-encoded; want %d, 1, %d", dir, frames, opens, self, sends, wantSelf)
		}
	}
}
