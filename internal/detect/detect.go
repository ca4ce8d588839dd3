// Package detect is the message-driven heartbeat failure detector behind
// the group membership service. The paper's GMS learns about failures and
// rejoins from group communication — with real detection latency during
// which constraint validation runs against a stale view — whereas the
// topology oracle in package group computes perfect views instantly from
// the simulated network. This detector closes that gap: every node
// periodically multicasts heartbeats over the transport, so heartbeats
// are subject to the same drops, latency, partitions and crashes as any
// other message, and each node derives its view locally from heartbeat
// freshness. Views therefore lag topology changes, may disagree between
// nodes (asymmetric views), and can be plain wrong under lossy links
// (false suspicions) — exactly the degraded-mode entry/exit behaviour the
// adaptive middleware has to cope with.
//
// Suspicion is pluggable (Policy): a fixed timeout or the phi-accrual
// estimator. Heartbeat timing is driven through simtime.Charge, so detection
// and rejoin latency are measured in the same simulated-time currency as
// the transport and persistence cost models, making them comparable and
// benchmarkable (exp-detect).
//
// The detector additionally keeps a ground-truth shadow of the simulated
// topology, used ONLY to attribute metrics: a suspicion of a peer the
// simulator says is reachable counts as detect.false_suspicions, a
// suspicion of a genuinely unreachable peer records the elapsed time since
// the topology change as detect.detection_latency, and re-admitting a
// recovered peer records detect.rejoin_latency. Detection decisions
// themselves never consult the ground truth.
package detect

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dedisys/internal/obs"
	"dedisys/internal/simtime"
	"dedisys/internal/transport"
)

// MsgHeartbeat is the transport message kind carrying heartbeats.
const MsgHeartbeat = "detect.heartbeat"

// Heartbeat is one heartbeat payload.
type Heartbeat struct {
	// Seq is the sender's heartbeat sequence number.
	Seq int64
	// Known piggybacks the sender's current view for peer discovery: a
	// receiver starts monitoring peers it has never heard of (the periodic
	// peer-exchange idiom of gossip layers), so rejoining nodes are
	// re-discovered transitively even when direct heartbeats are lost.
	Known []transport.NodeID
}

// Config tunes one detector.
type Config struct {
	// Interval is the heartbeat period in simulated time (default 10ms).
	Interval time.Duration
	// SuspectTimeout is the silence tolerance of the default fixed-timeout
	// policy (default 5×Interval). Ignored when Policy is set.
	SuspectTimeout time.Duration
	// Policy selects the suspicion policy (default FixedTimeout).
	Policy Policy
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.Policy == nil {
		c.Policy = FixedTimeout{Timeout: c.SuspectTimeout}
	}
	return c
}

// Option configures a Detector.
type Option func(*Detector)

// WithObserver attaches the detector to a shared observability scope;
// without it the detector inherits the network's scope.
func WithObserver(o *obs.Observer) Option {
	return func(d *Detector) { d.obs = o }
}

// Detector is one node's heartbeat failure detector. It implements
// group.ViewSource: the membership service consumes its locally-derived
// views through Self/Current/OnChange.
type Detector struct {
	self     transport.NodeID
	net      transport.Transport
	truth    transport.Oracle // nil on transports without a topology oracle
	policy   Policy
	interval time.Duration
	obs      *obs.Observer

	// ctx bounds every heartbeat send and is cancelled by Stop: a stopping
	// detector abandons in-flight sends instead of waiting out slow links.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	peers   map[transport.NodeID]*peerState
	seq     int64
	epoch   int64
	view    []transport.NodeID // current members (incl. self), sorted
	subs    []func(epoch int64, members []transport.NodeID)
	started bool
	stopped bool
	stop    chan struct{}
	done    chan struct{}

	// notifyMu serialises view notifications outside mu; lastNotified keeps
	// them monotone in epoch when rebuilds overlap.
	notifyMu     sync.Mutex
	lastNotified int64

	heartbeatsSent   *obs.Counter
	suspicions       *obs.Counter
	falseSuspicions  *obs.Counter
	detectionLatency *obs.Histogram
	rejoinLatency    *obs.Histogram
}

type peerState struct {
	mon       Monitor
	suspected bool
	// truth shadows the simulator's reachability of this peer for metric
	// attribution only; detection logic never reads it.
	truthReachable bool
	truthSince     time.Time
}

// New creates a detector for self and registers its heartbeat handler on the
// transport. Call Start to begin heartbeating. When the transport also
// provides the simulation-only ground-truth Oracle, the detector keeps a
// topology shadow for metric attribution (false suspicions, detection and
// rejoin latency); on a real-wire transport those metrics are simply not
// recorded — detection decisions never read the ground truth either way.
func New(net transport.Transport, self transport.NodeID, cfg Config, opts ...Option) (*Detector, error) {
	cfg = cfg.normalize()
	d := &Detector{
		self:     self,
		net:      net,
		policy:   cfg.Policy,
		interval: cfg.Interval,
		peers:    make(map[transport.NodeID]*peerState),
		view:     []transport.NodeID{self},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	d.truth, _ = net.(transport.Oracle)
	d.ctx, d.cancel = context.WithCancel(context.Background())
	for _, o := range opts {
		o(d)
	}
	if d.obs == nil {
		d.obs = net.Observer()
	}
	d.heartbeatsSent = d.obs.Counter("detect.heartbeats_sent")
	d.suspicions = d.obs.Counter("detect.suspicions")
	d.falseSuspicions = d.obs.Counter("detect.false_suspicions")
	d.detectionLatency = d.obs.Histogram("detect.detection_latency")
	d.rejoinLatency = d.obs.Histogram("detect.rejoin_latency")
	if err := net.Handle(self, MsgHeartbeat, d.handleHeartbeat); err != nil {
		return nil, fmt.Errorf("detect: register heartbeat handler: %w", err)
	}
	// Shadow topology changes for metric attribution (ground truth only;
	// transports without an oracle have no truth to shadow).
	if d.truth != nil {
		net.Watch(func(int64) { d.syncTruth(time.Now()) })
	}
	return d, nil
}

// Self implements group.ViewSource.
func (d *Detector) Self() transport.NodeID { return d.self }

// Interval returns the heartbeat period.
func (d *Detector) Interval() time.Duration { return d.interval }

// Policy returns the active suspicion policy.
func (d *Detector) Policy() Policy { return d.policy }

// Start seeds the peer set from the currently joined nodes — every peer is
// optimistically considered alive until it stays silent, the usual join-time
// assumption of a GMS — and begins the heartbeat loop.
func (d *Detector) Start() {
	now := time.Now()
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	for _, id := range d.net.Nodes() {
		if id != d.self {
			d.ensurePeerLocked(id, now)
		}
	}
	d.rebuildLocked()
	epoch, view, subs := d.snapshotLocked()
	d.mu.Unlock()
	d.notify(epoch, view, subs)
	go d.run()
}

// Stop terminates the heartbeat loop (idempotent) and returns promptly even
// mid-round: the detector-lifetime context is cancelled first, so in-flight
// heartbeat sends abort instead of waiting out slow links, and a round stuck
// behind a hung peer is abandoned rather than joined.
func (d *Detector) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	started := d.started
	d.mu.Unlock()
	d.cancel()
	close(d.stop)
	if started {
		<-d.done
	}
}

func (d *Detector) run() {
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		// The heartbeat period is charged as simulated time so detection
		// latency shares the calibrated currency of the network cost model.
		simtime.Charge(d.interval)
		select {
		case <-d.stop:
			return
		default:
		}
		d.tick()
	}
}

// tick sends one heartbeat round and re-evaluates suspicions.
func (d *Detector) tick() {
	d.mu.Lock()
	d.seq++
	hb := Heartbeat{Seq: d.seq, Known: append([]transport.NodeID(nil), d.view...)}
	targets := make([]transport.NodeID, 0, len(d.peers))
	for id := range d.peers {
		targets = append(targets, id)
	}
	d.mu.Unlock()

	// Concurrent fan-out: one round costs ~1 hop of simulated time, and
	// unreachable peers fail fast without delaying the rest of the round.
	// Sends are bounded by the detector-lifetime context, so Stop aborts
	// them instead of letting a slow link pin the round.
	var wg sync.WaitGroup
	for _, peer := range targets {
		peer := peer
		// Counted here, not in the goroutine: every increment completes
		// before tick returns, so the stat is quiescent once Stop returns
		// even when the round itself is abandoned.
		d.heartbeatsSent.Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.net.Send(d.ctx, d.self, peer, MsgHeartbeat, hb); err == nil {
				// A completed round trip proves the peer alive as much as a
				// received heartbeat does.
				d.alive(peer, time.Now())
			}
		}()
	}
	// Join the round, but never block a Stop behind it: a peer whose handler
	// hangs (beyond what context cancellation can interrupt) must not delay
	// shutdown. The abandoned goroutines fail fast once the context is
	// cancelled and only touch their own liveness bookkeeping.
	roundDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(roundDone)
	}()
	select {
	case <-roundDone:
		d.evaluate(time.Now())
	case <-d.stop:
	}
}

// handleHeartbeat processes one received heartbeat: freshness for the
// sender, discovery for piggybacked peers.
func (d *Detector) handleHeartbeat(from transport.NodeID, payload any) (any, error) {
	hb, ok := payload.(Heartbeat)
	if !ok {
		return nil, fmt.Errorf("detect: bad heartbeat payload %T", payload)
	}
	now := time.Now()
	d.alive(from, now)
	d.mu.Lock()
	for _, id := range hb.Known {
		if id != d.self && id != from {
			d.ensurePeerLocked(id, now)
		}
	}
	epoch, view, subs := d.snapshotLocked()
	d.mu.Unlock()
	d.notify(epoch, view, subs)
	return "ack", nil
}

// alive records a liveness proof for the peer, un-suspecting it if needed.
func (d *Detector) alive(peer transport.NodeID, now time.Time) {
	d.mu.Lock()
	ps := d.ensurePeerLocked(peer, now)
	ps.mon.Observe(now)
	rejoined := ps.suspected
	ps.suspected = false
	if rejoined {
		if ps.truthReachable {
			// True rejoin: measure from the moment the topology actually
			// reunited us. A recovering false suspicion has no topology
			// transition to measure against.
			lat := now.Sub(ps.truthSince)
			if lat > 0 {
				d.rejoinLatency.Observe(lat)
			}
		}
		if d.obs.Tracing() {
			d.obs.Emit(obs.EventRejoin, fmt.Sprintf("%s re-admits %s", d.self, peer))
		}
		d.rebuildLocked()
	}
	epoch, view, subs := d.snapshotLocked()
	d.mu.Unlock()
	d.notify(epoch, view, subs)
}

// evaluate runs the suspicion policy over all peers.
func (d *Detector) evaluate(now time.Time) {
	d.mu.Lock()
	changed := false
	for peer, ps := range d.peers {
		if ps.suspected || !ps.mon.Suspect(now) {
			continue
		}
		ps.suspected = true
		changed = true
		d.suspicions.Inc()
		falsely := ps.truthReachable
		if d.truth != nil {
			if falsely {
				d.falseSuspicions.Inc()
			} else if lat := now.Sub(ps.truthSince); lat > 0 {
				d.detectionLatency.Observe(lat)
			}
		}
		if d.obs.Tracing() {
			d.obs.Emit(obs.EventSuspicion, fmt.Sprintf("%s suspects %s (%s, false=%t)", d.self, peer, d.policy.Name(), falsely))
		}
	}
	if !changed {
		d.mu.Unlock()
		return
	}
	d.rebuildLocked()
	epoch, view, subs := d.snapshotLocked()
	d.mu.Unlock()
	d.notify(epoch, view, subs)
}

// ensurePeerLocked returns the peer's state, creating it with an optimistic
// liveness grace when unknown. Callers hold d.mu.
func (d *Detector) ensurePeerLocked(peer transport.NodeID, now time.Time) *peerState {
	ps, ok := d.peers[peer]
	if !ok {
		ps = &peerState{
			mon:        d.policy.Monitor(d.interval),
			truthSince: now,
		}
		if d.truth != nil {
			ps.truthReachable = d.truth.Reachable(d.self, peer)
		}
		ps.mon.Observe(now)
		d.peers[peer] = ps
		d.rebuildLocked()
	}
	return ps
}

// syncTruth refreshes the ground-truth reachability shadow of every
// monitored peer after a topology change (metric attribution only; never
// registered on transports without an Oracle).
func (d *Detector) syncTruth(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for peer, ps := range d.peers {
		r := d.truth.Reachable(d.self, peer)
		if r != ps.truthReachable {
			ps.truthReachable = r
			ps.truthSince = now
		}
	}
}

// rebuildLocked recomputes the view from the non-suspected peers; callers
// hold d.mu.
func (d *Detector) rebuildLocked() {
	members := make([]transport.NodeID, 0, len(d.peers)+1)
	members = append(members, d.self)
	for peer, ps := range d.peers {
		if !ps.suspected {
			members = append(members, peer)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	if equalIDs(members, d.view) {
		return
	}
	d.epoch++
	d.view = members
}

// snapshotLocked copies the state needed to notify subscribers outside the
// lock; callers hold d.mu.
func (d *Detector) snapshotLocked() (int64, []transport.NodeID, []func(int64, []transport.NodeID)) {
	view := append([]transport.NodeID(nil), d.view...)
	subs := make([]func(int64, []transport.NodeID), len(d.subs))
	copy(subs, d.subs)
	return d.epoch, view, subs
}

// notify delivers a view to subscribers, serialised and monotone in epoch:
// a notification that lost the race to a newer rebuild is suppressed.
func (d *Detector) notify(epoch int64, view []transport.NodeID, subs []func(int64, []transport.NodeID)) {
	d.notifyMu.Lock()
	defer d.notifyMu.Unlock()
	if epoch <= d.lastNotified {
		return
	}
	d.lastNotified = epoch
	for _, fn := range subs {
		fn(epoch, view)
	}
}

// Current implements group.ViewSource: the detector's current view of the
// group, derived purely from heartbeat freshness.
func (d *Detector) Current() (int64, []transport.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch, append([]transport.NodeID(nil), d.view...)
}

// OnChange implements group.ViewSource: fn runs on every view change, after
// the change is installed, outside the detector's lock.
func (d *Detector) OnChange(fn func(epoch int64, members []transport.NodeID)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.subs = append(d.subs, fn)
}

// Suspects returns the currently suspected peers, sorted.
func (d *Detector) Suspects() []transport.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []transport.NodeID
	for peer, ps := range d.peers {
		if ps.suspected {
			out = append(out, peer)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []transport.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
