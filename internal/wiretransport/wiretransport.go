// Package wiretransport is the real-wire implementation of
// transport.Transport: length-prefixed gob frames over TCP or unix-domain
// sockets between OS processes. It is the production counterpart of the
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
// Every frame is a 4-byte big-endian length prefix followed by the gob
// messages of one wireFrame. Each direction of a link is one long-lived gob
// stream: one encoder, used under the link's write mutex, and one decoder,
// owned by the link's reader goroutine, so type descriptors cross once per
// connection instead of once per frame. The stream lives and dies with the
// link — a link is exactly one connection, a reconnect is a new link, and
// codec state therefore never outlives or straddles a connection.
//
// The top bit of the length prefix is the stream-open marker: the frame
// starts a new gob stream and the reader must decode it (and what follows)
// with a fresh decoder. The first frame of every connection carries it; a
// first frame without it, a body that fails to decode, and bytes left over
// after the decoded value each kill the link. The remaining 31 bits carry the
// body length, capped at maxFrame on both sides: the sender refuses to emit
// what the receiver would reject.
//
// Encoding goes through a per-link scratch buffer before anything touches
// the connection, so a payload that cannot be framed (an unregistered type,
// or a frame over the cap) fails only its caller and the link survives. A
// failed Encode has already marked descriptors as sent that never left, so
// the link then discards its encoder and the next frame re-opens the stream
// under the marker. Payload types must be registered with encoding/gob; every
// package that puts a payload on the wire owns a wire.go whose init does
// exactly that (see the codec round-trip tests).
//
// # Links and reconnection
//
// Each peer is served by one link per direction: the first Send to a peer
// lazily dials its address; inbound connections are accepted by Start. A
// link is a connection, a write mutex and a reader goroutine that routes
// response frames to pending requests and dispatches request frames to the
// node's handlers. Any read, write or decode error kills the link: in-flight
// requests on it fail with transport.ErrUnreachable and the next Send dials
// anew. A crashed peer therefore fails fast (connection refused) and a
// restarted one is reached again without any explicit rejoin step.
//
// # Correlation and deadlines
//
// Requests carry process-unique correlation IDs; responses echo them. A
// sender waits for its ID under the caller's context: cancellation or
// expiry abandons the request (the response, if it ever arrives, is
// discarded) and fails the send with ErrUnreachable wrapping the context
// error, matching the simulated transport's semantics. The installed
// RetryPolicy re-dials and re-sends on transient unreachability with real
// (not simulated) backoff sleeps.
package wiretransport

import (
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
// allocate gigabytes); it leaves the prefix's top bit free for streamOpen.
const maxFrame = 64 << 20

// streamOpen is the length-prefix bit marking a frame that starts a new gob
// stream (see "Framing").
const streamOpen = 1 << 31

// errEncode marks a payload that could not be framed — not gob-encodable,
// or larger than maxFrame once encoded: a permanent, caller-side error that
// must neither kill the link nor be retried.
var errEncode = errors.New("wiretransport: payload cannot be framed")

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
	retry    transport.RetryPolicy
	ln       net.Listener
	closed   bool

	messages *obs.Counter
	failures *obs.Counter
	retries  *obs.Counter
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
	w.retries = w.obs.Counter("transport.retries")
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

// Join implements transport.Transport. Membership is fixed by the peer
// list: configured nodes re-join as a no-op, unknown ones are rejected.
func (w *Wire) Join(id transport.NodeID) error {
	if _, ok := w.addrs[id]; ok {
		return nil
	}
	return fmt.Errorf("%w: %s (wire membership is fixed by the peer list)", transport.ErrUnknownNode, id)
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

// SetRetry installs (or clears, with the zero value) the send retry policy.
func (w *Wire) SetRetry(p transport.RetryPolicy) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.retry = p
}

// Observer returns the transport's observability scope.
func (w *Wire) Observer() *obs.Observer { return w.obs }

// Stats returns delivery counters (Dropped is always zero: the wire has no
// loss injector).
func (w *Wire) Stats() transport.Stats {
	return transport.Stats{
		Messages: w.messages.Load(),
		Failures: w.failures.Load(),
		Retries:  w.retries.Load(),
	}
}

// Send delivers a request and returns the response, bounded by ctx. Failed
// dials, broken links and context expiry surface as ErrUnreachable; the
// installed retry policy re-tries exactly those, sleeping its Backoff in
// real time between attempts.
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
	w.mu.Lock()
	retry := w.retry
	w.mu.Unlock()
	attempts := retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var resp any
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			w.retries.Inc()
			if retry.Backoff > 0 {
				t := time.NewTimer(retry.Backoff)
				select {
				case <-ctx.Done():
					t.Stop()
					w.failures.Inc()
					return nil, fmt.Errorf("%w: %s -> %s: %w", transport.ErrUnreachable, w.self, to, ctx.Err())
				case <-t.C:
				}
			}
		}
		resp, err = w.sendOnce(ctx, to, kind, payload)
		if err == nil || !errors.Is(err, transport.ErrUnreachable) || ctx.Err() != nil {
			return resp, err
		}
	}
	return resp, err
}

func (w *Wire) sendOnce(ctx context.Context, to transport.NodeID, kind string, payload any) (any, error) {
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
	ch := make(chan wireFrame, 1)
	if !l.register(id, ch) {
		w.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: connection lost", transport.ErrUnreachable, w.self, to)
	}
	req := wireFrame{ID: id, Req: true, From: w.self, Kind: kind, Payload: payload}
	if werr := l.write(ctx, req); werr != nil {
		l.unregister(id)
		if errors.Is(werr, errEncode) {
			return nil, werr // permanent, link intact
		}
		l.fail()
		w.unlink(l)
		w.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: %v", transport.ErrUnreachable, w.self, to, werr)
	}
	select {
	case <-ctx.Done():
		l.unregister(id)
		w.failures.Inc()
		return nil, fmt.Errorf("%w: %s -> %s: %w", transport.ErrUnreachable, w.self, to, ctx.Err())
	case rf, ok := <-ch:
		if !ok {
			w.failures.Inc()
			return nil, fmt.Errorf("%w: %s -> %s: connection lost", transport.ErrUnreachable, w.self, to)
		}
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

// link is one connection to a peer: a write mutex serialising frames out
// and a reader goroutine routing frames in.
type link struct {
	w    *Wire
	conn net.Conn
	peer transport.NodeID // set on outbound links; "" for accepted ones

	// writeMu guards the outbound gob stream: enc encodes into wbuf, which is
	// flushed to conn one frame at a time. enc is nil until the first frame
	// and after a failed encode; the next frame then opens a new stream.
	writeMu sync.Mutex
	enc     *gob.Encoder
	wbuf    bytes.Buffer

	mu      sync.Mutex
	pending map[uint64]chan wireFrame
	dead    bool
}

func newLink(w *Wire, conn net.Conn) *link {
	return &link{w: w, conn: conn, pending: make(map[uint64]chan wireFrame)}
}

// register records a pending request; reports false when the link is
// already dead.
func (l *link) register(id uint64, ch chan wireFrame) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return false
	}
	l.pending[id] = ch
	return true
}

func (l *link) unregister(id uint64) {
	l.mu.Lock()
	delete(l.pending, id)
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

// write frames and sends one message on the link's gob stream. Encoding goes
// into the scratch buffer first, so a payload that cannot be framed fails
// cleanly without touching the connection; the length prefix is patched in
// afterwards. Such a failure leaves the encoder believing it sent type
// descriptors that never left, so the encoder is dropped and the next frame
// opens a new stream.
func (l *link) write(ctx context.Context, f wireFrame) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	var marker uint32
	if l.enc == nil {
		l.enc = gob.NewEncoder(&l.wbuf)
		marker = streamOpen
	}
	l.wbuf.Reset()
	l.wbuf.Write([]byte{0, 0, 0, 0})
	if err := l.enc.Encode(&f); err != nil {
		l.enc = nil
		return fmt.Errorf("%w: kind %s: %v", errEncode, f.Kind, err)
	}
	b := l.wbuf.Bytes()
	n := len(b) - 4
	if n > maxFrame {
		l.enc, l.wbuf = nil, bytes.Buffer{} // do not pin an oversized scratch buffer
		return fmt.Errorf("%w: kind %s: frame of %d bytes exceeds the %d-byte limit", errEncode, f.Kind, n, maxFrame)
	}
	binary.BigEndian.PutUint32(b[:4], marker|uint32(n))

	if deadline, ok := ctx.Deadline(); ok {
		l.conn.SetWriteDeadline(deadline)
	} else {
		l.conn.SetWriteDeadline(time.Time{})
	}
	_, err := l.conn.Write(b)
	return err
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

// frameReader is the inbound half of a link's gob stream: one decoder over
// a body buffer that is refilled frame by frame.
type frameReader struct {
	r    io.Reader
	hdr  [4]byte
	body []byte
	src  bytes.Reader
	dec  *gob.Decoder
}

// next reads one length-prefixed frame. A frame carrying streamOpen gets a
// fresh decoder; every other frame continues the stream of the one before.
func (fr *frameReader) next() (wireFrame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return wireFrame{}, err
	}
	prefix := binary.BigEndian.Uint32(fr.hdr[:])
	open, n := prefix&streamOpen != 0, prefix&^streamOpen
	if n > maxFrame {
		return wireFrame{}, fmt.Errorf("wiretransport: frame of %d bytes exceeds limit", n)
	}
	if !open && fr.dec == nil {
		return wireFrame{}, errors.New("wiretransport: first frame does not open a gob stream")
	}
	if uint32(cap(fr.body)) < n {
		fr.body = make([]byte, n)
	}
	body := fr.body[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return wireFrame{}, err
	}
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

// readLoop routes inbound frames until the connection dies, then fails the
// link and forgets it.
func (l *link) readLoop() {
	fr := frameReader{r: l.conn}
	for {
		f, err := fr.next()
		if err != nil {
			l.fail()
			l.w.unlink(l)
			return
		}
		if f.Req {
			// Handlers run in their own goroutine so a slow handler never
			// blocks response routing for requests pipelined on this link.
			go l.serve(f)
		} else {
			l.deliver(f)
		}
	}
}

// serve dispatches one request and writes the response back on the same
// link the request arrived on.
func (l *link) serve(f wireFrame) {
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
		l.fail()
		l.w.unlink(l)
	}
}
