// Package wiretransport is the real-wire implementation of
// transport.Transport: length-prefixed frames over TCP or unix-domain sockets
// between OS processes, self-encoded for the payloads of a replicated write
// and gob for everything else. It is the production counterpart of the
// in-process simulated Network — cmd/dedisys-node assembles one middleware
// node per process over it — while the simulation remains the default for
// tests, experiments and the script engine.
//
// # Membership
//
// Membership is static and configuration-derived: every process is started
// with the same -peers list, so Nodes returns the identical sorted universe
// in every process and the placement ring is seeded consistently. There is
// no topology oracle (the Oracle interface is deliberately not implemented):
// failure handling on the wire requires detector-driven group membership
// (group.WithDetector), exactly as a real deployment would run it.
//
// # Framing
//
// Every frame is a 4-byte big-endian length prefix followed by a body. The
// low bits of the prefix carry the body length, capped at maxFrame on both
// sides — the sender refuses to emit what the receiver would reject — and its
// two top bits say what the body is; a prefix with both set, or with any bit
// between them and the length, kills the link.
//
// A frame without the selfEncoded bit (1<<30) holds the gob messages of one
// wireFrame. Each direction of a link is one long-lived gob stream: one
// encoder, used under the link's write mutex, and one decoder, owned by the
// link's reader goroutine, so type descriptors cross once per connection
// instead of once per frame. The stream lives and dies with the link — a link
// is exactly one connection, a reconnect is a new link, and codec state
// therefore never outlives or straddles a connection. The top bit (1<<31) is
// the stream-open marker: the frame starts a new gob stream and the reader
// must decode it (and the gob frames that follow) with a fresh decoder. The
// first gob frame of every connection carries it; a first gob frame without
// it, a body that fails to decode, and bytes left over after the decoded
// value each kill the link. Payload types must be registered with
// encoding/gob; every package that puts a payload on the wire owns a wire.go
// whose init does exactly that (see the codec round-trip tests).
//
// A frame with the selfEncoded bit holds no gob at all: a hand-written header
// (a flags byte whose low bit is "request", the correlation ID as a varint,
// From, Kind, a payload tag) and then the bytes the payload wrote for itself.
// A frame is sent this way iff it carries no error and its payload implements
// transport.WirePayload and accepts — replication's batch and its ack, which
// are every frame of a replicated write; that one rule, in frameWriter.frame,
// is the whole choice, and nothing configures it. The reader interns From,
// Kind and whatever names the payload's decoder (transport.RegisterWire, in
// the same wire.go) asks for — node IDs, class and attribute names, never
// object IDs or values — in a bounded per-link table, and everything else a
// decoder returns is fresh memory: replicas install decoded state and vectors
// by reference. Only the payload's own block may be reused: a request whose
// payload is a transport.Releaser is released once its handler has returned
// and the response is written. Every count is checked against the bytes
// that remain before it sizes an allocation; a truncated header, an unknown
// tag, flag, op or value kind, and bytes left over after the payload each
// kill the link. Self-encoded frames touch neither gob stream, so the two
// kinds interleave freely on one link. gob stays for every other kind — the
// cost it has is paid per frame, and no other kind is on a write's path — for
// errors, for payloads nested in other payloads, and for a payload that
// declines: a batch whose state holds a value outside the kinds
// object.Attrs' form names goes through gob exactly as before.
//
// Either body is built in the link's one scratch buffer before anything
// touches the connection, and leaves in one Write. A payload that cannot be
// framed (an unregistered type, or a frame over the cap — on either path)
// therefore fails only its caller and the link survives; a payload that
// declines has touched neither the connection nor the encoder. A failed gob
// Encode has already marked descriptors as sent that never left, so the link
// then discards its encoder and the next gob frame re-opens the stream under
// the marker.
//
// # Links and reconnection
//
// Each peer is served by one link per direction: the first Send to a peer
// lazily dials its address; inbound connections are accepted by Start. A
// link is a connection, a write mutex and a reader goroutine that reads
// through one buffer, so frames already queued cost one read between them,
// routes response frames to pending requests and hands request frames to the
// link's servers, goroutines that run the node's handlers. A server that
// finishes parks on the link for the next request, and the reader starts a
// new one only when none is parked, so a steady stream of requests starts no
// goroutine and a blocked handler still delays no other. Any read, write or
// decode error kills the link: in-flight requests on it fail with
// transport.ErrUnreachable, its parked servers exit, and the next Send dials
// anew. A crashed peer therefore fails fast (connection refused) and a
// restarted one is reached again without any explicit rejoin step.
//
// # Correlation and deadlines
//
// Requests carry process-unique correlation IDs; responses echo them. A
// sender waits for its ID on a reply channel of the link's, taken from the
// link's idle ones when there is one, under the caller's context:
// cancellation or expiry abandons the request (the response, if it ever
// arrives, is discarded) and fails the send with ErrUnreachable wrapping the
// context error, matching the simulated transport's semantics. A channel goes
// back to the idle ones only when no reply can still land in it — its sender
// received the reply, or abandoned the request before the reader took the
// channel to deliver — so a late reply never reaches another request. A send
// is one attempt: a request that failed "connection lost" may already have
// run on its destination, so nothing below the caller re-sends it.
package wiretransport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dedisys/internal/obs"
	"dedisys/internal/transport"
)

// kindPing is the built-in liveness probe kind answered by the transport
// itself (WaitPeers); it never reaches registered handlers.
const kindPing = "wire.ping"

// maxFrame bounds one frame's body size (a corrupt length prefix must not
// allocate gigabytes); it leaves the prefix's top bits free for the flags.
const maxFrame = 64 << 20

// Flag bits of the length prefix (see "Framing"): streamOpen marks a gob
// frame that starts a new gob stream, selfEncoded a frame whose body is not
// gob at all. No frame carries both, and the bits between them and the length
// stay zero.
const (
	streamOpen  = 1 << 31
	selfEncoded = 1 << 30
	prefixFlags = streamOpen | selfEncoded
)

// reqFlag is the one bit in use of a self-encoded body's first byte.
const reqFlag = 1

// errEncode marks a payload that could not be framed — not gob-encodable,
// or larger than maxFrame once encoded: a permanent, caller-side error that
// must not kill the link and is no ErrUnreachable.
var errEncode = errors.New("wiretransport: payload cannot be framed")

// errUnsent marks a request whose caller's deadline passed before the first
// byte of its frame was written: it fails its caller alone, and the link,
// whose stream saw none of it, survives.
var errUnsent = errors.New("wiretransport: deadline passed before the frame was written")

// wireFrame is the unit of exchange. Req distinguishes requests from
// responses; responses echo the request's ID. ErrKind spreads a handler
// error across the wire: 0 none, 1 application error (message only),
// 2 transport.ErrNoHandler.
type wireFrame struct {
	ID      uint64
	Req     bool
	From    transport.NodeID
	Kind    string
	Payload any
	ErrKind uint8
	ErrMsg  string
}

const (
	errKindNone      = 0
	errKindApp       = 1
	errKindNoHandler = 2
)

// Option configures a Wire.
type Option func(*Wire)

// WithObserver attaches the transport to a shared observability scope;
// without it the transport observes into a private registry.
func WithObserver(o *obs.Observer) Option {
	return func(w *Wire) { w.obs = o }
}

// dialTimeout bounds each connection attempt and each WaitPeers probe.
const dialTimeout = 2 * time.Second

// Wire is one process's endpoint of the real-wire transport. It is safe for
// concurrent use.
type Wire struct {
	self  transport.NodeID
	addrs map[transport.NodeID]string
	obs   *obs.Observer

	nextID atomic.Uint64

	mu       sync.Mutex
	handlers map[string]transport.Handler
	out      map[transport.NodeID]*link
	inbound  map[*link]struct{}
	ln       net.Listener
	closed   bool

	messages *obs.Counter
	failures *obs.Counter
}

var _ transport.Transport = (*Wire)(nil)

// New creates a wire transport for self. peers maps every node of the
// deployment — including self — to its listen address: "unix:/path" (or a
// bare absolute path) for unix-domain sockets, "tcp:host:port" (or a bare
// host:port) for TCP. Call Start to begin accepting connections.
func New(self transport.NodeID, peers map[transport.NodeID]string, opts ...Option) (*Wire, error) {
	if _, ok := peers[self]; !ok {
		return nil, fmt.Errorf("wiretransport: peer list does not contain self (%s)", self)
	}
	w := &Wire{
		self:     self,
		addrs:    make(map[transport.NodeID]string, len(peers)),
		handlers: make(map[string]transport.Handler),
		out:      make(map[transport.NodeID]*link),
		inbound:  make(map[*link]struct{}),
	}
	for id, addr := range peers {
		if id == "" || addr == "" {
			return nil, fmt.Errorf("wiretransport: empty peer entry (%q=%q)", id, addr)
		}
		w.addrs[id] = addr
	}
	for _, o := range opts {
		o(w)
	}
	if w.obs == nil {
		w.obs = obs.New()
	}
	w.messages = w.obs.Counter("transport.messages")
	w.failures = w.obs.Counter("transport.failures")
	return w, nil
}

// splitAddr maps one configured address to a (network, address) pair for
// net.Dial/Listen.
func splitAddr(addr string) (string, string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	case strings.HasPrefix(addr, "/"), strings.HasPrefix(addr, "@"):
		return "unix", addr
	default:
		return "tcp", addr
	}
}

// Start listens on self's configured address and accepts peer connections.
func (w *Wire) Start() error {
	network, addr := splitAddr(w.addrs[w.self])
	if network == "unix" {
		// A stale socket file from a previous run of this node would make
		// Listen fail; removing it is safe because the address is ours.
		_ = os.Remove(addr)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return fmt.Errorf("wiretransport: listen %s %s: %w", network, addr, err)
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return errors.New("wiretransport: closed")
	}
	w.ln = ln
	w.mu.Unlock()
	go w.acceptLoop(ln)
	return nil
}

// Addr returns the listener address (useful with "tcp:host:0" in tests).
func (w *Wire) Addr() net.Addr {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ln == nil {
		return nil
	}
	return w.ln.Addr()
}

func (w *Wire) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		l := newLink(w, conn)
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.inbound[l] = struct{}{}
		w.mu.Unlock()
		go l.readLoop()
	}
}

// Close shuts the listener and every link; in-flight requests fail with
// ErrUnreachable.
func (w *Wire) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	ln := w.ln
	out := w.out
	in := w.inbound
	w.out = make(map[transport.NodeID]*link)
	w.inbound = make(map[*link]struct{})
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, l := range out {
		l.fail()
	}
	for l := range in {
		l.fail()
	}
	return nil
}

// Nodes returns the configured universe, sorted — identical in every
// process of the deployment.
func (w *Wire) Nodes() []transport.NodeID {
	out := make([]transport.NodeID, 0, len(w.addrs))
	for id := range w.addrs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Handle registers the handler for one message kind. A wire endpoint only
// accepts registrations for its own node.
func (w *Wire) Handle(id transport.NodeID, kind string, h transport.Handler) error {
	if id != w.self {
		return fmt.Errorf("wiretransport: handler for %s registered on node %s", id, w.self)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.handlers[kind] = h
	return nil
}

// Watch implements transport.Transport. Wire membership is static, so
// watchers are accepted but never fire.
func (w *Wire) Watch(fn func(epoch int64)) {}

// Epoch implements transport.Transport: the static configuration is epoch 1.
func (w *Wire) Epoch() int64 { return 1 }

// Observer returns the transport's observability scope.
func (w *Wire) Observer() *obs.Observer { return w.obs }

// Send delivers a request and returns the response, bounded by ctx. Failed
// dials, broken links and context expiry surface as ErrUnreachable.
func (w *Wire) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if from != w.self {
		return nil, fmt.Errorf("wiretransport: send from %s on endpoint %s", from, w.self)
	}
	if _, ok := w.addrs[to]; !ok {
		return nil, fmt.Errorf("%w: %s", transport.ErrUnknownNode, to)
	}
	if cerr := ctx.Err(); cerr != nil {
		w.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: %w", transport.ErrUnreachable, w.self, to, cerr)
	}
	if to == w.self {
		// Loopback: dispatch locally, like the simulated fabric's self-send.
		resp, err := w.dispatch(w.self, kind, payload)
		if err == nil {
			w.messages.Inc()
		}
		return resp, err
	}
	l, err := w.link(ctx, to)
	if err != nil {
		w.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: %v", transport.ErrUnreachable, w.self, to, err)
	}
	id := w.nextID.Add(1)
	ch, ok := l.register(id)
	if !ok {
		w.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: connection lost", transport.ErrUnreachable, w.self, to)
	}
	req := wireFrame{ID: id, Req: true, From: w.self, Kind: kind, Payload: payload}
	if werr := l.write(ctx, req); werr != nil {
		l.unregister(id, ch)
		if errors.Is(werr, errEncode) {
			return nil, werr // permanent, link intact
		}
		if !errors.Is(werr, errUnsent) {
			l.drop()
		}
		w.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: %v", transport.ErrUnreachable, w.self, to, werr)
	}
	select {
	case <-ctx.Done():
		l.unregister(id, ch)
		w.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: %w", transport.ErrUnreachable, w.self, to, ctx.Err())
	case rf, ok := <-ch:
		if !ok {
			w.failures.Inc()
			return nil, fmt.Errorf("%w: %s -> %s: connection lost", transport.ErrUnreachable, w.self, to)
		}
		l.release(ch)
		switch rf.ErrKind {
		case errKindNoHandler:
			return nil, fmt.Errorf("%w: %s on %s", transport.ErrNoHandler, kind, to)
		case errKindApp:
			w.messages.Inc()
			return rf.Payload, errors.New(rf.ErrMsg)
		default:
			w.messages.Inc()
			return rf.Payload, nil
		}
	}
}

// link returns the outbound link to the peer, dialing lazily.
func (w *Wire) link(ctx context.Context, to transport.NodeID) (*link, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, errors.New("transport closed")
	}
	if l := w.out[to]; l != nil {
		w.mu.Unlock()
		return l, nil
	}
	w.mu.Unlock()

	network, addr := splitAddr(w.addrs[to])
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	l := newLink(w, conn)
	l.peer = to
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		conn.Close()
		return nil, errors.New("transport closed")
	}
	if existing := w.out[to]; existing != nil {
		// Lost a concurrent dial race; keep the winner.
		w.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	w.out[to] = l
	w.mu.Unlock()
	go l.readLoop()
	return l, nil
}

// unlink forgets a dead link so the next send dials anew.
func (w *Wire) unlink(l *link) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if l.peer != "" && w.out[l.peer] == l {
		delete(w.out, l.peer)
	}
	delete(w.inbound, l)
}

// dispatch runs the registered handler for one incoming request.
func (w *Wire) dispatch(from transport.NodeID, kind string, payload any) (any, error) {
	if kind == kindPing {
		return "pong", nil
	}
	w.mu.Lock()
	h := w.handlers[kind]
	w.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("%w: %s on %s", transport.ErrNoHandler, kind, w.self)
	}
	return h(from, payload)
}

// WaitPeers blocks until every configured peer answers a liveness probe or
// the context expires — the barrier cmd/dedisys-node uses before reporting
// ready, so a cluster can be started in any order.
func (w *Wire) WaitPeers(ctx context.Context) error {
	for _, id := range w.Nodes() {
		if id == w.self {
			continue
		}
		for {
			probe, cancel := context.WithTimeout(ctx, dialTimeout)
			_, err := w.Send(probe, w.self, id, kindPing, "ping")
			cancel()
			if err == nil {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("wiretransport: waiting for %s: %w", id, ctx.Err())
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	return nil
}

// link is one connection to a peer: a write mutex serialising frames out,
// a reader goroutine routing frames in, and the servers it hands requests to.
type link struct {
	w    *Wire
	conn net.Conn
	peer transport.NodeID // set on outbound links; "" for accepted ones

	// writeMu guards the outbound half of the codec and serialises frames on
	// conn, one Write per frame.
	writeMu sync.Mutex
	fw      frameWriter

	// work hands a request to a parked server. It is unbuffered, so only a
	// server that is idle right now can take one, and readLoop, its only
	// sender, closes it when the link dies.
	work chan wireFrame

	mu      sync.Mutex
	pending map[uint64]chan wireFrame
	idle    []chan wireFrame // empty reply channels no deliverer can hold
	dead    bool
}

func newLink(w *Wire, conn net.Conn) *link {
	return &link{w: w, conn: conn, work: make(chan wireFrame), pending: make(map[uint64]chan wireFrame)}
}

// drop forgets the link and then kills it — in that order, so that a sender
// woken by the failure finds no dead link in its way and dials anew.
func (l *link) drop() {
	l.w.unlink(l)
	l.fail()
}

// register records a pending request and returns the channel its reply
// arrives on: an idle one of the link's if there is one, else a new one.
// It reports false when the link is already dead.
func (l *link) register(id uint64) (chan wireFrame, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return nil, false
	}
	var ch chan wireFrame
	if n := len(l.idle); n > 0 {
		ch, l.idle = l.idle[n-1], l.idle[:n-1]
	} else {
		ch = make(chan wireFrame, 1)
	}
	l.pending[id] = ch
	return ch, true
}

// unregister abandons a pending request. Its channel is reused only if the
// entry was still there: then no deliverer took it, and none ever will. One
// that deliver or fail took may yet receive, or already holds, a reply or a
// close, and is left to the collector.
func (l *link) unregister(id uint64, ch chan wireFrame) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending[id] == ch {
		delete(l.pending, id)
		l.idle = append(l.idle, ch)
	}
}

// release returns the channel of a request whose reply its sender received:
// deliver deleted the entry before its one send, so nobody else holds it.
func (l *link) release(ch chan wireFrame) {
	l.mu.Lock()
	if !l.dead {
		l.idle = append(l.idle, ch)
	}
	l.mu.Unlock()
}

// deliver routes one response frame to its pending request; responses
// nobody waits for anymore (abandoned by context expiry) are discarded.
func (l *link) deliver(f wireFrame) {
	l.mu.Lock()
	ch := l.pending[f.ID]
	delete(l.pending, f.ID)
	l.mu.Unlock()
	if ch != nil {
		ch <- f
	}
}

// fail kills the link: the connection closes and every pending request is
// woken with a closed channel (read as ErrUnreachable by the sender).
func (l *link) fail() {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return
	}
	l.dead = true
	pend := l.pending
	l.pending = nil
	l.mu.Unlock()
	l.conn.Close()
	for _, ch := range pend {
		close(ch)
	}
}

// write frames one message into the link's scratch and sends it. Nothing
// touches the connection before the frame is complete, so a payload that
// cannot be framed fails cleanly (errEncode) and the link survives. So does a
// frame the caller's deadline stopped before its first byte (errUnsent); as
// after a failed encode, the next gob frame opens a new stream, since this
// one may have carried type descriptors.
func (l *link) write(ctx context.Context, f wireFrame) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	b, err := l.fw.frame(f)
	if err != nil {
		return err
	}
	if deadline, ok := ctx.Deadline(); ok {
		l.conn.SetWriteDeadline(deadline)
	} else {
		l.conn.SetWriteDeadline(time.Time{})
	}
	n, err := l.conn.Write(b)
	if n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
		l.fw.enc = nil
		return fmt.Errorf("%w: %v", errUnsent, err)
	}
	return err
}

// scratch is the append-only buffer frames are built in. It is a Writer so
// that the gob encoder and the self-encoding payloads fill the same slice.
type scratch []byte

func (s *scratch) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

// frameWriter is the outbound half of a link's codec: the scratch every frame
// is built in, length prefix first, and the gob stream's encoder. enc is nil
// until the first gob frame and after a failed encode; the next gob frame
// then opens a new stream. Self-encoded frames never touch it.
type frameWriter struct {
	buf scratch
	enc *gob.Encoder
}

// frame returns the bytes of one frame, valid until the next call. The choice
// of body is made here and nowhere else: a frame is self-encoded iff it
// carries no error and its payload implements transport.WirePayload and
// accepts; every other frame is gob.
func (fw *frameWriter) frame(f wireFrame) ([]byte, error) {
	if p, ok := f.Payload.(transport.WirePayload); ok && f.ErrKind == errKindNone {
		b := append(fw.buf[:0], 0, 0, 0, 0)
		if f.Req {
			b = append(b, reqFlag)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendUvarint(b, f.ID)
		b = transport.AppendWireString(b, string(f.From))
		b = transport.AppendWireString(b, f.Kind)
		b = append(b, p.WireTag())
		if b, accepted := p.AppendWire(b); accepted {
			fw.buf = b
			return fw.finish(selfEncoded, f.Kind)
		}
		// Declined: the bytes above are overwritten below, and neither the
		// connection nor the gob stream has seen any of them.
	}
	return fw.gobFrame(f)
}

// gobFrame encodes f on the link's gob stream. It is a function of its own so
// that the frame, whose address Encode takes, moves to the heap on this path
// only. A failed Encode has already marked type descriptors as sent that never
// left, so the encoder is dropped and the next gob frame opens a new stream.
func (fw *frameWriter) gobFrame(f wireFrame) ([]byte, error) {
	var marker uint32
	if fw.enc == nil {
		fw.enc = gob.NewEncoder(&fw.buf)
		marker = streamOpen
	}
	fw.buf = append(fw.buf[:0], 0, 0, 0, 0)
	if err := fw.enc.Encode(&f); err != nil {
		fw.enc = nil
		return nil, fmt.Errorf("%w: kind %s: %v", errEncode, f.Kind, err)
	}
	b, err := fw.finish(marker, f.Kind)
	if err != nil {
		fw.enc = nil // its descriptors, if any, went with the frame
	}
	return b, err
}

// finish patches the length prefix in front of the body in buf. A frame over
// the cap is refused here, on either path, and its oversized scratch is
// dropped rather than pinned by the link.
func (fw *frameWriter) finish(flags uint32, kind string) ([]byte, error) {
	n := len(fw.buf) - 4
	if n > maxFrame {
		fw.buf = nil
		return nil, fmt.Errorf("%w: kind %s: frame of %d bytes exceeds the %d-byte limit", errEncode, kind, n, maxFrame)
	}
	binary.BigEndian.PutUint32(fw.buf[:4], flags|uint32(n))
	return fw.buf, nil
}

// RoundTrip encodes one payload inside a wire frame on a fresh gob stream
// and decodes it back — what the first frame of a link goes through, type
// descriptors included. Every package that owns wire payload types uses it
// in tests to prove its gob registrations are complete and lossless — gob
// silently drops unexported fields and refuses unregistered concrete types
// in interface slots, both of which must surface before the wire backend
// ever runs.
func RoundTrip(payload any) (any, error) {
	var buf bytes.Buffer
	f := wireFrame{ID: 1, Req: true, From: "codec-check", Kind: "codec.check", Payload: payload}
	if err := gob.NewEncoder(&buf).Encode(&f); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	var out wireFrame
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return out.Payload, nil
}

// RoundTripFrame frames one payload as a link's writer does — self-encoded
// when the payload offers and accepts, else as the first gob frame of a
// stream — and decodes the bytes with a link's reader. self reports which body
// the frame had. Packages that give a payload a self-encoded form test it
// against RoundTrip with this: both must return the same value.
func RoundTripFrame(payload any) (out any, self bool, err error) {
	var fw frameWriter
	b, err := fw.frame(wireFrame{ID: 1, Req: true, From: "codec-check", Kind: "codec.check", Payload: payload})
	if err != nil {
		return nil, false, fmt.Errorf("encode: %w", err)
	}
	f, err := newFrameReader(bytes.NewReader(b)).next()
	if err != nil {
		return nil, false, fmt.Errorf("decode: %w", err)
	}
	return f.Payload, binary.BigEndian.Uint32(b)&selfEncoded != 0, nil
}

// frameReader is the inbound half of a link's codec: a buffered reader over
// the connection, a body buffer that is refilled frame by frame, the gob
// stream's decoder over it, and the cursor and name table self-encoded frames
// are read with. A body is copied out of the read buffer, so nothing decoded
// aliases it.
type frameReader struct {
	r    *bufio.Reader
	hdr  [4]byte
	body []byte
	src  bytes.Reader
	dec  *gob.Decoder
	wr   transport.WireReader
}

// newFrameReader reads frames from r through a read buffer of its own: the
// frames already queued at the receiver, up to the buffer's 4 KiB, cost one
// read between them.
func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// next reads one length-prefixed frame and decodes it as its prefix says.
func (fr *frameReader) next() (wireFrame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return wireFrame{}, err
	}
	prefix := binary.BigEndian.Uint32(fr.hdr[:])
	open, self, n := prefix&streamOpen != 0, prefix&selfEncoded != 0, prefix&^prefixFlags
	if n > maxFrame {
		return wireFrame{}, fmt.Errorf("wiretransport: frame of %d bytes exceeds limit", n)
	}
	switch {
	case open && self:
		return wireFrame{}, errors.New("wiretransport: frame prefix carries both flag bits")
	case !open && !self && fr.dec == nil:
		return wireFrame{}, errors.New("wiretransport: first gob frame does not open a gob stream")
	}
	if uint32(cap(fr.body)) < n {
		fr.body = make([]byte, n)
	}
	body := fr.body[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return wireFrame{}, err
	}
	if self {
		return fr.selfFrame(body)
	}
	return fr.gobFrame(body, open)
}

// gobFrame decodes a gob body: with a fresh decoder when the frame opens a
// stream, otherwise continuing the stream of the gob frame before. Like the
// writer's gobFrame it is apart so that the frame escapes on this path only.
func (fr *frameReader) gobFrame(body []byte, open bool) (wireFrame, error) {
	fr.src.Reset(body)
	if open {
		fr.dec = gob.NewDecoder(&fr.src)
	}
	var f wireFrame
	if err := fr.dec.Decode(&f); err != nil {
		return wireFrame{}, fmt.Errorf("wiretransport: decode frame: %w", err)
	}
	if fr.src.Len() != 0 {
		return wireFrame{}, fmt.Errorf("wiretransport: %d trailing bytes in frame", fr.src.Len())
	}
	return f, nil
}

// selfFrame decodes a self-encoded body: the header frameWriter.frame wrote,
// then the payload by the decoder registered for its tag. From and Kind come
// out of the link's name table; nothing in the result aliases body.
func (fr *frameReader) selfFrame(body []byte) (wireFrame, error) {
	r := &fr.wr
	r.Reset(body)
	flags := r.Byte()
	f := wireFrame{ID: r.Uvarint(), Req: flags&reqFlag != 0}
	f.From = transport.NodeID(r.Name())
	f.Kind = r.Name()
	tag := r.Byte()
	if err := r.Err(); err != nil {
		return wireFrame{}, fmt.Errorf("wiretransport: self-encoded frame header: %w", err)
	}
	dec := transport.WireDecoderFor(tag)
	if flags&^reqFlag != 0 || dec == nil {
		return wireFrame{}, fmt.Errorf("wiretransport: self-encoded frame: unknown flags %#x or payload tag %d", flags, tag)
	}
	f.Payload = dec(r)
	if err := r.Err(); err != nil {
		return wireFrame{}, fmt.Errorf("wiretransport: decode %s payload: %w", f.Kind, err)
	}
	if r.Len() != 0 {
		return wireFrame{}, fmt.Errorf("wiretransport: %d trailing bytes in frame", r.Len())
	}
	return f, nil
}

// readLoop routes inbound frames until the connection dies or sends a frame
// that does not decode, then drops the link and closes work, which sends
// every parked server away with it.
//
// Handlers run on servers of their own, so a slow handler never blocks
// response routing for requests pipelined on this link. A request goes to a
// server parked on work if one is idle, else to a new one; a server that
// finishes parks for the next. Only an idle server can take a request, so a
// handler that blocks delays no other, and the link keeps as many servers as
// it has had requests in service at once.
func (l *link) readLoop() {
	fr := newFrameReader(l.conn)
	for {
		f, err := fr.next()
		if err != nil {
			l.drop()
			close(l.work)
			return
		}
		if !f.Req {
			l.deliver(f)
			continue
		}
		select {
		case l.work <- f:
		default:
			go l.serveLoop(f)
		}
	}
}

// serveLoop serves f, then every request handed to it while it is parked on
// work, until the link dies.
func (l *link) serveLoop(f wireFrame) {
	l.serve(f)
	for f := range l.work {
		l.serve(f)
	}
}

// serve dispatches one request and writes the response back on the same
// link the request arrived on. Then nothing reads the request any more, and
// a payload whose decoder reuses its memory is released.
func (l *link) serve(f wireFrame) {
	if p, ok := f.Payload.(transport.Releaser); ok {
		defer p.Release()
	}
	resp, err := l.w.dispatch(f.From, f.Kind, f.Payload)
	rf := wireFrame{ID: f.ID, From: l.w.self, Kind: f.Kind, Payload: resp}
	if err != nil {
		rf.ErrMsg = err.Error()
		if errors.Is(err, transport.ErrNoHandler) {
			rf.ErrKind = errKindNoHandler
		} else {
			rf.ErrKind = errKindApp
		}
	}
	if werr := l.write(context.Background(), rf); werr != nil {
		if errors.Is(werr, errEncode) {
			// The response payload cannot cross the wire; report that to the
			// caller instead of killing the link.
			rf = wireFrame{ID: f.ID, From: l.w.self, Kind: f.Kind, ErrKind: errKindApp, ErrMsg: werr.Error()}
			if werr = l.write(context.Background(), rf); werr == nil {
				return
			}
		}
		l.drop()
	}
}
