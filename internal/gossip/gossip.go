// Package gossip is the continuous anti-entropy layer. Reconciliation
// (§4.4, internal/reconcile) runs only when a view change re-unites
// partitions and ships the whole co-hosted replica table; gossip instead
// runs all the time: each node periodically picks a small random fanout of
// co-group peers (via the placement ring; every peer under full
// replication) and exchanges compact digests — per-object version-vector
// summaries behind an O(1) fold + bloom-filter first pass — over the
// transport, pulling full records only for objects whose vectors actually
// diverge. Deltas funnel through the replication manager's reconciliation
// merge, so gossip and heal-reconcile converge to identical outcomes;
// steady-state rounds between in-sync peers cost one digest-sized message
// pair and ship no Record payloads.
//
// The layering follows the minnet gossip exemplar (SNIPPETS.md 3): the
// gossip layer composes over the messaging transport and the replication
// state, owning only round scheduling, peer sampling and digest exchange.
package gossip

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/placement"
	"dedisys/internal/replication"
	"dedisys/internal/simtime"
	"dedisys/internal/transport"
)

// Transport message kinds owned by the gossip layer.
const (
	// MsgDigest opens an exchange: summary + bloom filter, answered by the
	// peer's delta map (or an in-sync acknowledgement).
	MsgDigest = "gossip.digest"
	// MsgPull requests full records for named divergent objects.
	MsgPull = "gossip.pull"
	// MsgPush ships records the peer provably lacks.
	MsgPush = "gossip.push"
)

// Config tunes one node's gossip manager.
type Config struct {
	// Interval is the simtime-charged period between rounds (default 10ms).
	Interval time.Duration
	// Fanout is the number of random peers gossiped with per round
	// (default 2, clamped to the peer count).
	Fanout int
	// Seed makes peer sampling deterministic; 0 derives a stable seed from
	// the node ID, so repeated runs of the same cluster pick the same peers.
	// Never time-based: chaos schedules must replay bit-for-bit.
	Seed int64
	// Manual disables the background loop; rounds run only through RunRound
	// or GossipWith (deterministic tests, scripted scenarios, the chaos
	// harness and exp-gossip all drive rounds explicitly).
	Manual bool
	// Placement scopes peer sampling to co-group nodes; nil gossips with
	// every node (full replication).
	Placement *placement.Ring
	// Resolver handles write-write conflicts surfaced by delta merges
	// (nil uses replication.MostUpdatesResolver).
	Resolver replication.ConflictResolver
}

// normalize fills defaults.
func (c Config) normalize(self transport.NodeID) Config {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.Seed == 0 {
		// Stable per-node seed: nodes of one cluster sample different peer
		// permutations, but every run of the same cluster repeats them.
		c.Seed = int64(mix64(fingerprint(0x9e3779b97f4a7c15, object.ID(self), replication.DigestEntry{})))
	}
	return c
}

// Option configures a Manager.
type Option func(*Manager)

// WithObserver attaches the manager to a shared observability scope;
// without it the manager inherits the transport's scope.
func WithObserver(o *obs.Observer) Option {
	return func(g *Manager) { g.obs = o }
}

// Exchange reports one digest exchange with a peer.
type Exchange struct {
	Peer   transport.NodeID
	InSync bool
	Pulled int // records pulled from the peer
	Pushed int // records pushed to the peer
}

// Manager is one node's anti-entropy gossip service.
type Manager struct {
	self     transport.NodeID
	net      transport.Transport
	repl     *replication.Manager
	ring     *placement.Ring
	interval time.Duration
	fanout   int
	resolve  replication.ConflictResolver
	obs      *obs.Observer

	// ctx bounds every exchange issued by the background loop and the push
	// merges executed in handlers; Stop cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	rng     *rand.Rand
	salt    uint64
	streak  map[transport.NodeID]int64 // consecutive divergent exchanges per peer
	started bool
	stopped bool
	stop    chan struct{}
	done    chan struct{}

	rounds       *obs.Counter // gossip rounds initiated
	exchanges    *obs.Counter // digest exchanges initiated
	insync       *obs.Counter // exchanges answered in-sync (digest only)
	digestBytes  *obs.Counter // gob-encoded bytes of digest requests+replies
	deltaBytes   *obs.Counter // gob-encoded bytes of pulled/pushed records
	deltasPulled *obs.Counter // records pulled because vectors diverged
	pushed       *obs.Counter // records pushed to peers lacking them
	unreachable  *obs.Counter // exchanges lost to partitions/crashes
	convRounds   *obs.Counter // divergent exchanges paid before re-sync
	resyncs      *obs.Counter // divergence episodes closed (mean = convRounds/resyncs)
}

// New creates a gossip manager for self over the given transport and
// replication state, and registers its message handlers. Call Start to run
// the periodic loop; Manual configurations drive RunRound directly.
func New(net transport.Transport, self transport.NodeID, repl *replication.Manager, cfg Config, opts ...Option) (*Manager, error) {
	if net == nil || repl == nil {
		return nil, errors.New("gossip: transport and replication manager are required")
	}
	cfg = cfg.normalize(self)
	g := &Manager{
		self:     self,
		net:      net,
		repl:     repl,
		ring:     cfg.Placement,
		interval: cfg.Interval,
		fanout:   cfg.Fanout,
		resolve:  cfg.Resolver,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		salt:     uint64(cfg.Seed),
		streak:   make(map[transport.NodeID]int64),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	for _, o := range opts {
		o(g)
	}
	if g.obs == nil {
		g.obs = net.Observer()
	}
	g.rounds = g.obs.Counter("gossip.rounds")
	g.exchanges = g.obs.Counter("gossip.exchanges")
	g.insync = g.obs.Counter("gossip.insync")
	g.digestBytes = g.obs.Counter("gossip.digest_bytes")
	g.deltaBytes = g.obs.Counter("gossip.delta_bytes")
	g.deltasPulled = g.obs.Counter("gossip.deltas_pulled")
	g.pushed = g.obs.Counter("gossip.pushed")
	g.unreachable = g.obs.Counter("gossip.unreachable")
	g.convRounds = g.obs.Counter("gossip.convergence_rounds")
	g.resyncs = g.obs.Counter("gossip.resyncs")
	for kind, h := range map[string]transport.Handler{
		MsgDigest: g.handleDigest,
		MsgPull:   g.handlePull,
		MsgPush:   g.handlePush,
	} {
		if err := net.Handle(self, kind, h); err != nil {
			return nil, fmt.Errorf("gossip: register %s: %w", kind, err)
		}
	}
	return g, nil
}

// Interval returns the configured round period.
func (g *Manager) Interval() time.Duration { return g.interval }

// Fanout returns the configured peers-per-round.
func (g *Manager) Fanout() int { return g.fanout }

// Peers returns the nodes this manager gossips with: the union of the
// node's replica groups under sharded placement, every other node without a
// ring. Sorted for deterministic sampling.
func (g *Manager) Peers() []transport.NodeID {
	var peers []transport.NodeID
	if g.ring == nil {
		for _, id := range g.net.Nodes() {
			if id != g.self {
				peers = append(peers, id)
			}
		}
		return peers
	}
	seen := make(map[transport.NodeID]struct{})
	for _, grp := range g.ring.MemberGroups(g.self) {
		for _, r := range g.ring.GroupReplicas(grp) {
			if r != g.self {
				seen[r] = struct{}{}
			}
		}
	}
	for id := range seen {
		peers = append(peers, id)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return peers
}

// Start begins the periodic gossip loop (idempotent, no-op when Manual).
func (g *Manager) Start() {
	g.mu.Lock()
	if g.started || g.stopped {
		g.mu.Unlock()
		return
	}
	g.started = true
	g.mu.Unlock()
	go g.run()
}

// Stop terminates the loop (idempotent) and aborts in-flight exchanges: the
// manager-lifetime context is cancelled first, so a round stuck behind a
// slow link is abandoned rather than joined.
func (g *Manager) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	started := g.started
	g.mu.Unlock()
	g.cancel()
	close(g.stop)
	if started {
		<-g.done
	}
}

func (g *Manager) run() {
	defer close(g.done)
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		// The round period is charged as simulated time, the same currency
		// as the transport hop and persistence cost models.
		simtime.Charge(g.interval)
		select {
		case <-g.stop:
			return
		default:
		}
		_, _ = g.RunRound(g.ctx)
	}
}

// RunRound performs one gossip round: sample Fanout random peers and
// exchange digests with each in order. Unreachable peers are counted and
// skipped — partitions are exactly when anti-entropy must keep trying.
// Exchanges run sequentially, so explicitly driven rounds are deterministic.
func (g *Manager) RunRound(ctx context.Context) ([]Exchange, error) {
	peers := g.Peers()
	if len(peers) == 0 {
		return nil, nil
	}
	g.mu.Lock()
	g.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	g.mu.Unlock()
	k := g.fanout
	if k > len(peers) {
		k = len(peers)
	}
	g.rounds.Inc()
	var out []Exchange
	var errs []error
	for _, peer := range peers[:k] {
		ex, err := g.GossipWith(ctx, peer)
		if err != nil {
			if !errors.Is(err, transport.ErrUnreachable) {
				errs = append(errs, err)
			}
			continue
		}
		out = append(out, ex)
	}
	return out, errors.Join(errs...)
}

// nextSalt rotates the per-exchange fingerprint salt.
func (g *Manager) nextSalt() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.salt = mix64(g.salt + 0x9e3779b97f4a7c15)
	return g.salt
}

// GossipWith runs one digest exchange with the peer: summary + bloom out,
// delta map back, then pull what diverges and push what the peer lacks.
func (g *Manager) GossipWith(ctx context.Context, peer transport.NodeID) (Exchange, error) {
	ex := Exchange{Peer: peer}
	local := g.repl.Digest(peer)
	salt := g.nextSalt()
	req := digestMsg{Salt: salt, Summary: summarize(salt, local)}
	for id, e := range local {
		req.Bloom.Add(fingerprint(salt, id, e))
	}
	g.exchanges.Inc()
	g.digestBytes.Add(wireSize(req))
	resp, err := g.net.Send(ctx, g.self, peer, MsgDigest, req)
	if err != nil {
		g.unreachable.Inc()
		return ex, err
	}
	reply, ok := resp.(digestReply)
	if !ok {
		return ex, fmt.Errorf("gossip: bad digest reply %T from %s", resp, peer)
	}
	g.digestBytes.Add(wireSize(reply))
	if reply.InSync {
		ex.InSync = true
		g.insync.Inc()
		g.settle(peer)
		return ex, nil
	}
	g.diverged(peer)

	// Decide per delta entry: adopt tombstones directly, pull everything
	// whose vector is unknown, divergent, or locally tombstoned (the merge
	// re-creates the object from a newer record, or re-propagates our
	// deletion to the peer).
	var want, give []object.ID
	for id, ent := range reply.Delta {
		le, have := local[id]
		switch {
		case ent.Deleted:
			// The one replica rule decides: the tombstone buries a live state
			// it is newer than or concurrent with, and a re-create newer than
			// it, or another incarnation of the ID, is pushed to the peer.
			if g.repl.AdoptTombstone(id, ent.VV) {
				give = append(give, id)
			}
		case have && le.Deleted:
			want = append(want, id)
		case !have:
			want = append(want, id)
		default:
			if cmp, comparable := ent.VV.Compare(le.VV); !comparable || cmp != 0 {
				want = append(want, id)
			}
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(want) > 0 {
		resp, err := g.net.Send(ctx, g.self, peer, MsgPull, pullMsg{IDs: want})
		if err != nil {
			g.unreachable.Inc()
			return ex, err
		}
		pr, ok := resp.(pullReply)
		if !ok {
			return ex, fmt.Errorf("gossip: bad pull reply %T from %s", resp, peer)
		}
		g.deltasPulled.Add(int64(len(pr.Records)))
		g.deltaBytes.Add(wireSize(pr))
		ex.Pulled = len(pr.Records)
		if _, err := g.repl.MergeRecords(ctx, peer, pr.Records, g.resolve); err != nil {
			return ex, err
		}
	}

	// Push live entries the peer's filter provably lacks. Entries already in
	// the delta map were handled above (the pull merge pushes back our state
	// when we dominate), so only truly unseen objects join them here.
	for id, le := range local {
		if le.Deleted {
			continue
		}
		if _, dup := reply.Delta[id]; dup {
			continue
		}
		if !reply.Bloom.Contains(fingerprint(salt, id, le)) {
			give = append(give, id)
		}
	}
	if len(give) > 0 {
		recs := g.repl.RecordsByID(give)
		if len(recs) > 0 {
			msg := pushMsg{Records: recs}
			g.deltaBytes.Add(wireSize(msg))
			if _, err := g.net.Send(ctx, g.self, peer, MsgPush, msg); err != nil {
				g.unreachable.Inc()
				return ex, err
			}
			g.pushed.Add(int64(len(recs)))
			ex.Pushed = len(recs)
		}
	}
	return ex, nil
}

// diverged records one more divergent exchange with the peer.
func (g *Manager) diverged(peer transport.NodeID) {
	g.mu.Lock()
	g.streak[peer]++
	g.mu.Unlock()
}

// settle closes a divergence episode: the number of divergent exchanges it
// took to re-sync with the peer lands in gossip.convergence_rounds.
func (g *Manager) settle(peer transport.NodeID) {
	g.mu.Lock()
	n := g.streak[peer]
	if n > 0 {
		g.streak[peer] = 0
	}
	g.mu.Unlock()
	if n > 0 {
		g.convRounds.Add(n)
		g.resyncs.Inc()
	}
}

// --- message handlers (executed on the receiving node) ---

func (g *Manager) handleDigest(from transport.NodeID, payload any) (any, error) {
	msg, ok := payload.(digestMsg)
	if !ok {
		return nil, fmt.Errorf("gossip: bad digest payload %T", payload)
	}
	local := g.repl.Digest(from)
	sum := summarize(msg.Salt, local)
	if sum == msg.Summary {
		return digestReply{InSync: true}, nil
	}
	reply := digestReply{Summary: sum}
	for id, e := range local {
		h := fingerprint(msg.Salt, id, e)
		reply.Bloom.Add(h)
		if !msg.Bloom.Contains(h) {
			if reply.Delta == nil {
				reply.Delta = make(map[object.ID]replication.DigestEntry)
			}
			reply.Delta[id] = e
		}
	}
	return reply, nil
}

func (g *Manager) handlePull(from transport.NodeID, payload any) (any, error) {
	msg, ok := payload.(pullMsg)
	if !ok {
		return nil, fmt.Errorf("gossip: bad pull payload %T", payload)
	}
	return pullReply{Records: g.repl.RecordsByID(msg.IDs)}, nil
}

func (g *Manager) handlePush(from transport.NodeID, payload any) (any, error) {
	msg, ok := payload.(pushMsg)
	if !ok {
		return nil, fmt.Errorf("gossip: bad push payload %T", payload)
	}
	// Merge under the manager-lifetime context: push-back sends issued by
	// the merge are abandoned when this node stops.
	if _, err := g.repl.MergeRecords(g.ctx, from, msg.Records, g.resolve); err != nil {
		return nil, err
	}
	return "ack", nil
}

// wireSize measures the gob encoding of a payload the way the wire
// transport would frame it (type-prefixed interface encoding), charging the
// digest_bytes/delta_bytes metrics in real bytes even on the simulated
// transport.
func wireSize(v any) int64 {
	var c countWriter
	if err := gob.NewEncoder(&c).Encode(&v); err != nil {
		return 0
	}
	return c.n
}

// WireSize exposes the gob payload size measurement for experiments that
// compare gossip traffic against heal-reconcile pull payloads.
func WireSize(v any) int64 { return wireSize(v) }

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
