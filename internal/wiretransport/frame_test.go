package wiretransport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dedisys/internal/gossip"
	"dedisys/internal/group"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
)

// freshFrame encodes f as a frame that opens a new gob stream — what a
// peer's first frame, or its first frame after a failed encode, looks like.
func freshFrame(t testing.TB, f wireFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if err := gob.NewEncoder(&buf).Encode(&f); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b, streamOpen|uint32(len(b)-4))
	return b
}

func clearMarker(b []byte) []byte {
	b[0] &^= 0x80
	return b
}

// selfFrame builds a self-encoded reply frame by hand: the header link.write
// puts in front of a transport.WirePayload's bytes, then payload as given.
func selfFrame(flags byte, tag byte, payload ...byte) func([]byte) []byte {
	return func([]byte) []byte {
		body := binary.AppendUvarint([]byte{flags}, 7)
		body = transport.AppendWireString(body, "b")
		body = transport.AppendWireString(body, "echo")
		body = append(append(body, tag), payload...)
		return append(binary.BigEndian.AppendUint32(nil, selfEncoded|uint32(len(body))), body...)
	}
}

// replBatchTag is replication's payload tag for a batch (its golden test
// pins the layout the cases below break).
const replBatchTag = 1

// frameCases are reply streams a peer may put on a connection. The peer
// answers request k with a well-formed fresh-stream frame for k < at and
// with mangle(frame) for k == at — one frame, or frames of them when set, of
// which all but the last decode; wantErr is the reader's error for that last
// frame ("" when it must decode, to the peer's reply).
var frameCases = []struct {
	name    string
	at      int
	mangle  func(good []byte) []byte
	frames  int
	wantErr string
}{
	{
		name: "oversized length prefix",
		mangle: func([]byte) []byte {
			return binary.BigEndian.AppendUint32(nil, streamOpen|(maxFrame+1))
		},
		wantErr: "exceeds limit",
	},
	{
		name:    "truncated body",
		mangle:  func(good []byte) []byte { return good[:len(good)-3] },
		wantErr: io.ErrUnexpectedEOF.Error(),
	},
	{
		name: "trailing bytes after the value",
		mangle: func(good []byte) []byte {
			binary.BigEndian.PutUint32(good, binary.BigEndian.Uint32(good)+3)
			return append(good, 0, 0, 0)
		},
		wantErr: "trailing bytes",
	},
	{
		name:    "first frame without the stream marker",
		mangle:  clearMarker,
		wantErr: "does not open a gob stream",
	},
	{
		name: "gob after self-encoded, still no marker",
		mangle: func(good []byte) []byte {
			return append(selfFrame(0, isoSelfTag, 2, 0)(nil), clearMarker(good)...)
		},
		frames:  2,
		wantErr: "does not open a gob stream",
	},
	{
		name:   "self-encoded ahead of the stream opener",
		mangle: func(good []byte) []byte { return append(selfFrame(0, isoSelfTag, 2, 0)(nil), good...) },
		frames: 2,
	},
	{
		name: "prefix with both flag bits",
		mangle: func(good []byte) []byte {
			good[0] |= selfEncoded >> 24
			return good
		},
		wantErr: "both flag bits",
	},
	{
		name: "self: header cut short",
		mangle: func([]byte) []byte {
			return append(binary.BigEndian.AppendUint32(nil, selfEncoded|2), 0, 0x80)
		},
		wantErr: "header",
	},
	{
		name:    "self: unknown header flag",
		mangle:  selfFrame(0x82, isoSelfTag, 2, 0),
		wantErr: "flags 0x82",
	},
	{
		name:    "self: unknown payload tag",
		mangle:  selfFrame(0, 0xef),
		wantErr: "payload tag 239",
	},
	{
		name:    "self: payload cut short",
		mangle:  selfFrame(0, isoSelfTag, 2, 5, 'a'),
		wantErr: "truncated",
	},
	{
		name:    "self: trailing bytes",
		mangle:  selfFrame(0, isoSelfTag, 2, 0, 0),
		wantErr: "trailing bytes",
	},
	{
		name:    "self: op count beyond the frame",
		mangle:  selfFrame(0, replBatchTag, 0xff, 0xff, 0xff, 0x7f),
		wantErr: "count 268435455",
	},
	{
		name:    "self: unknown batch op kind",
		mangle:  selfFrame(0, replBatchTag, 1, 9, 0, 0),
		wantErr: "unknown batch op kind 9",
	},
	{
		name:    "self: unknown state value kind",
		mangle:  selfFrame(0, replBatchTag, 1, 2, 1, 'x', 2, 1, 'a', 0x63, 0, 0),
		wantErr: "unknown state value kind 99",
	},
	{
		name:    "self: attribute count beyond the frame",
		mangle:  selfFrame(0, replBatchTag, 1, 2, 1, 'x', 0xff, 0x7f, 0, 0),
		wantErr: "bytes that remain",
	},
	{
		name:    "new stream mid-connection without the marker",
		at:      1,
		mangle:  clearMarker,
		wantErr: "decode frame",
	},
	{
		name:   "marker mid-connection swaps the decoder",
		at:     1,
		mangle: func(good []byte) []byte { return good },
	},
}

// TestFrameReader feeds each case's byte stream to a frameReader.
func TestFrameReader(t *testing.T) {
	for _, tc := range frameCases {
		t.Run(tc.name, func(t *testing.T) {
			reply := wireFrame{ID: 7, From: "b", Kind: "echo", Payload: "pong"}
			var stream []byte
			for k := 0; k < tc.at; k++ {
				stream = append(stream, freshFrame(t, reply)...)
			}
			stream = append(stream, tc.mangle(freshFrame(t, reply))...)

			fr := newFrameReader(bytes.NewReader(stream))
			for k := 0; k < tc.at+max(tc.frames, 1)-1; k++ {
				if _, err := fr.next(); err != nil {
					t.Fatalf("frame %d: %v", k, err)
				}
			}
			before := cap(fr.body)
			f, err := fr.next()
			if tc.wantErr == "" {
				if err != nil || f.Payload != "pong" {
					t.Fatalf("frame %d = %+v, %v; want the reply", tc.at, f, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("frame %d: err = %v, want %q", tc.at, err, tc.wantErr)
			}
			if strings.Contains(tc.wantErr, "exceeds") && cap(fr.body) != before {
				t.Fatalf("body buffer grew from %d to %d bytes for a rejected length prefix", before, cap(fr.body))
			}
		})
	}
}

// scriptedPeer listens on addr and answers every request on every
// connection with a fresh-stream echo frame, except that on the first
// connection request number at is answered with mangle's bytes and, when
// hangUp is set, the connection is closed after it. It reports how many
// connections it accepted.
type scriptedPeer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu       sync.Mutex
	accepted int
}

func startScriptedPeer(t *testing.T, addr string, at int, mangle func([]byte) []byte, hangUp bool) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.accepted++
			first := p.accepted == 1
			p.mu.Unlock()
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer conn.Close()
				fr := newFrameReader(conn)
				for k := 0; ; k++ {
					req, err := fr.next()
					if err != nil {
						return
					}
					out := freshFrame(t, wireFrame{ID: req.ID, From: "b", Kind: req.Kind, Payload: req.Payload})
					bad := first && k == at
					if bad {
						out = mangle(out)
					}
					if _, err := conn.Write(out); err != nil || (bad && hangUp) {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); p.wg.Wait() })
	return p
}

func (p *scriptedPeer) connections() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// TestMalformedFrameKillsOnlyThatLink drives a real endpoint against a peer
// that sends each malformed reply: the request in flight fails as
// unreachable, the link is dropped, and the next Send dials anew and
// succeeds. The well-formed mid-connection stream reopen keeps the link.
func TestMalformedFrameKillsOnlyThatLink(t *testing.T) {
	for _, tc := range frameCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			peers := map[transport.NodeID]string{
				"a": "unix:" + filepath.Join(dir, "a.sock"),
				"b": "unix:" + filepath.Join(dir, "b.sock"),
			}
			wa, err := New("a", peers)
			if err != nil {
				t.Fatal(err)
			}
			defer wa.Close()
			peer := startScriptedPeer(t, filepath.Join(dir, "b.sock"), tc.at, tc.mangle, tc.wantErr != "")
			ctx := contextWithTimeout(t, 10*time.Second)

			echo := func() error {
				resp, err := wa.Send(ctx, "a", "b", "echo", "ping")
				if err == nil && resp != "ping" {
					t.Fatalf("echo = %v", resp)
				}
				return err
			}
			for k := 0; k < tc.at; k++ {
				if err := echo(); err != nil {
					t.Fatalf("send %d: %v", k, err)
				}
			}
			err = echo()
			wantFailures, wantConns := int64(0), 1
			if tc.wantErr != "" {
				if !errors.Is(err, transport.ErrUnreachable) {
					t.Fatalf("send %d: err = %v, want ErrUnreachable", tc.at, err)
				}
				wantFailures, wantConns = 1, 2
			} else if err != nil {
				t.Fatalf("send %d: %v", tc.at, err)
			}
			if err := echo(); err != nil {
				t.Fatalf("send after the case's frame: %v", err)
			}
			if got := counter(t, wa.Observer(), "transport.failures"); got != wantFailures {
				t.Fatalf("failures = %d, want %d", got, wantFailures)
			}
			if got := peer.connections(); got != wantConns {
				t.Fatalf("peer accepted %d connections, want %d", got, wantConns)
			}
		})
	}
}

// TestOversizedSendFailsOnlyItsCaller pins the send-side frame cap: a
// payload whose frame would exceed maxFrame is refused at the sender as a
// permanent error, instead of being emitted for the receiver to answer by
// killing the link under every other request in flight on it.
func TestOversizedSendFailsOnlyItsCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes a 64 MiB payload")
	}
	wa, wb := pair(t)
	release := make(chan struct{})
	wb.Handle("b", "slow", func(_ transport.NodeID, p any) (any, error) { <-release; return p, nil })
	wb.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil })
	ctx := contextWithTimeout(t, 30*time.Second)

	if _, err := wa.Send(ctx, "a", "b", "echo", "warm"); err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp any
		err  error
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, err := wa.Send(ctx, "a", "b", "slow", "bystander")
		inFlight <- result{resp, err}
	}()

	// The cap holds on both frame bodies, and neither leaves the link holding
	// a scratch buffer of the refused size.
	for _, oversized := range []any{
		make([]byte, maxFrame+1),
		isoSelf{Text: strings.Repeat("x", maxFrame+1)},
	} {
		_, err := wa.Send(ctx, "a", "b", "echo", oversized)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("oversized %T send: err = %v, want a frame-limit error", oversized, err)
		}
		if errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("oversized %T send: %v — must be permanent, not unreachable", oversized, err)
		}
		wa.mu.Lock()
		l := wa.out["b"]
		wa.mu.Unlock()
		l.writeMu.Lock()
		pinned := cap(l.fw.buf)
		l.writeMu.Unlock()
		if pinned > maxFrame {
			t.Fatalf("oversized %T send left a %d-byte scratch on the link", oversized, pinned)
		}
	}
	close(release)
	if r := <-inFlight; r.err != nil || r.resp != "bystander" {
		t.Fatalf("request in flight beside the oversized send = %v, %v", r.resp, r.err)
	}
	if resp, err := wa.Send(ctx, "a", "b", "echo", "after"); err != nil || resp != "after" {
		t.Fatalf("send after the oversized one = %v, %v", resp, err)
	}
	if got := counter(t, wa.Observer(), "transport.failures"); got != 0 {
		t.Fatalf("failures = %d, want 0", got)
	}
}

// tap is a unix-socket proxy that records both byte streams of the first
// connection it forwards.
type tap struct {
	mu       sync.Mutex
	requests bytes.Buffer // dialer -> target
	replies  bytes.Buffer // target -> dialer
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func startTap(t testing.TB, listen, target string) *tap {
	t.Helper()
	ln, err := net.Listen("unix", listen)
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		in, err := ln.Accept()
		if err != nil {
			return
		}
		defer in.Close()
		out, err := net.Dial("unix", target)
		if err != nil {
			return
		}
		defer out.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = io.Copy(in, io.TeeReader(out, lockedWriter{&tp.mu, &tp.replies}))
			in.Close()
		}()
		_, _ = io.Copy(out, io.TeeReader(in, lockedWriter{&tp.mu, &tp.requests}))
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return tp
}

func (tp *tap) streams() [][]byte {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return [][]byte{bytes.Clone(tp.requests.Bytes()), bytes.Clone(tp.replies.Bytes())}
}

// batchSends counts the repl.batch requests its endpoint sends.
type batchSends struct {
	*Wire
	n atomic.Int32
}

func (w *batchSends) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	if kind == "repl.batch" {
		w.n.Add(1)
	}
	return w.Wire.Send(ctx, from, to, kind, payload)
}

// recordStreams runs two middleware nodes over the wire — the
// cmd/dedisys-node assembly — with a tap on the a->b link, drives liveness
// probes, replicated creates and writes, a forwarded invocation and a gossip
// exchange over it, and returns the link's request and reply byte streams.
// The write a forwards to b sends no repl.batch back: b's commit returns a's
// batch in the reply.
func recordStreams(t testing.TB) [][]byte {
	t.Helper()
	dir := t.TempDir()
	sock := func(name string) string { return filepath.Join(dir, name+".sock") }
	tp := startTap(t, sock("tap"), sock("b"))
	peersOf := map[transport.NodeID]map[transport.NodeID]string{
		"a": {"a": "unix:" + sock("a"), "b": "unix:" + sock("tap")},
		"b": {"a": "unix:" + sock("a"), "b": "unix:" + sock("b")},
	}
	schema := object.NewSchema("Entity")
	schema.DefineKind("Set", object.Write, func(e *object.Entity, args []any) (any, error) {
		e.Set("v", args[0])
		return "ok", nil
	})
	nodes := map[transport.NodeID]*node.Node{}
	wires := map[transport.NodeID]*batchSends{}
	for _, id := range []transport.NodeID{"a", "b"} {
		inner, err := New(id, peersOf[id])
		if err != nil {
			t.Fatal(err)
		}
		if err := inner.Start(); err != nil {
			t.Fatal(err)
		}
		defer inner.Close()
		w := &batchSends{Wire: inner}
		n, err := node.New(node.Options{ID: id, Net: w, GMS: group.NewMembership(w), Gossip: &gossip.Config{Manual: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		n.RegisterSchema(schema)
		nodes[id], wires[id] = n, w
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := nodes["a"], nodes["b"]
	check(wires["a"].WaitPeers(ctx))
	check(wires["b"].WaitPeers(ctx))
	all := []transport.NodeID{"a", "b"}
	check(a.CreateCtx(ctx, "Entity", "x", object.State{"v": int64(0), "name": "x"}, replication.NewInfo("a", all)))
	check(b.CreateCtx(ctx, "Entity", "y", object.State{"v": int64(0)}, replication.NewInfo("b", all)))
	for i := 1; i <= 3; i++ {
		_, err := a.InvokeCtx(ctx, "x", "Set", int64(i)) // repl.batch a->b
		check(err)
		before := wires["b"].n.Load()
		_, err = a.InvokeCtx(ctx, "y", "Set", int64(i)) // node.invoke a->b, a's batch in the reply
		check(err)
		if sent := wires["b"].n.Load() - before; sent != 0 {
			t.Fatalf("the write a forwarded to b sent %d repl.batch b->a; want 0", sent)
		}
		if e, err := a.Registry.Get("y"); err != nil || e.GetInt("v") != int64(i) {
			t.Fatalf("a's replica of y after its forwarded write %d: %v, %v", i, e, err)
		}
	}
	_, err := a.Gossip.GossipWith(ctx, "b")
	check(err)
	a.Repl.WaitPropagation()
	b.Repl.WaitPropagation()
	return tp.streams()
}

// carriesApply reports whether a frame is the reply to a forwarded invocation
// that hands its requester a batch to apply.
func carriesApply(f wireFrame) bool {
	v := reflect.ValueOf(f.Payload)
	if f.Req || f.Kind != "node.invoke" || v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return false
	}
	apply := v.Elem().FieldByName("Apply")
	return apply.IsValid() && !apply.IsNil()
}

// TestRecordedStreams checks the fuzz seeds against the reader they seed:
// both directions of a real link decode to the end, carry the kinds the
// middleware puts on the wire, each in the frame body it should have — the
// replies to the three forwarded writes with their batches — and open their
// gob stream exactly once — only the first gob frame of a healthy connection
// carries type descriptors.
func TestRecordedStreams(t *testing.T) {
	// Frames per kind and body; a reply carries its request's kind.
	self, viaGob := map[string]int{}, map[string]int{}
	applies := 0
	for dir, stream := range recordStreams(t) {
		fr := newFrameReader(bytes.NewReader(stream))
		frames, opens := 0, 0
		for off := 0; off < len(stream); frames++ {
			prefix := binary.BigEndian.Uint32(stream[off:])
			off += 4 + int(prefix&^prefixFlags)
			f, err := fr.next()
			if err != nil {
				t.Fatalf("stream %d, frame %d: %v", dir, frames, err)
			}
			if prefix&streamOpen != 0 {
				opens++
			}
			if prefix&selfEncoded != 0 {
				self[f.Kind]++
			} else {
				viaGob[f.Kind]++
			}
			if carriesApply(f) {
				applies++
			}
		}
		if _, err := fr.next(); err != io.EOF {
			t.Fatalf("stream %d: after its %d frames: %v, want EOF", dir, frames, err)
		}
		if frames < 8 || opens != 1 {
			t.Fatalf("stream %d: %d frames, %d stream-open markers; want >= 8 frames and 1 marker", dir, frames, opens)
		}
	}
	// A replica write and its ack are self-encoded, both directions; every
	// other kind still rides gob.
	if self["repl.batch"] < 2 || viaGob["repl.batch"] != 0 {
		t.Fatalf("repl.batch: %d self-encoded frames, %d gob frames; want requests and acks all self-encoded", self["repl.batch"], viaGob["repl.batch"])
	}
	for _, kind := range []string{kindPing, "node.invoke", "repl.pull"} {
		if viaGob[kind] == 0 || self[kind] != 0 {
			t.Fatalf("%s: %d gob frames, %d self-encoded; want all on gob", kind, viaGob[kind], self[kind])
		}
	}
	if applies != 3 {
		t.Fatalf("%d node.invoke replies carry a batch to apply, want 3", applies)
	}
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader, seeded
// with both directions of a recorded link (whole, gob and self-encoded frames
// interleaved, and cut to their first frame). The reader must return or fail — never panic — and must never
// hold a body buffer beyond maxFrame, whatever the length prefixes claim.
func FuzzReadFrame(f *testing.F) {
	for _, stream := range recordStreams(f) {
		f.Add(stream)
		f.Add(stream[:4+int(binary.BigEndian.Uint32(stream)&^prefixFlags)])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for {
			if _, err := fr.next(); err != nil {
				break
			}
		}
		if cap(fr.body) > maxFrame {
			t.Fatalf("body buffer of %d bytes exceeds maxFrame", cap(fr.body))
		}
	})
}
