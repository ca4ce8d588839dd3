// Package gossip is the continuous anti-entropy layer. Reconciliation
// (§4.4, internal/reconcile) runs when a view change re-unites partitions;
// gossip instead runs all the time: each node periodically picks a small
// random fanout of co-group peers (via the placement ring; every peer under
// full replication) and runs the one repair exchange with each —
// replication.Manager.ReconcileWith, the same exchange a heal runs, so gossip
// and heal reconciliation converge to identical outcomes by construction.
// Between in-sync peers an exchange is one request carrying the digest and
// one empty reply, and ships no record.
//
// The layering follows the minnet gossip exemplar (SNIPPETS.md 3): the
// gossip layer composes over the replication state and owns only round
// scheduling, peer sampling and the per-peer divergence streaks; it registers
// no message handler of its own.
package gossip

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dedisys/internal/obs"
	"dedisys/internal/placement"
	"dedisys/internal/replication"
	"dedisys/internal/simtime"
	"dedisys/internal/transport"
)

// Config tunes one node's gossip manager.
type Config struct {
	// Interval is the simtime-charged period between rounds (default 10ms).
	Interval time.Duration
	// Fanout is the number of random peers gossiped with per round
	// (default 2, clamped to the peer count).
	Fanout int
	// Manual disables the background loop; rounds run only through RunRound
	// or GossipWith (deterministic tests, scripted scenarios, the chaos
	// harness and exp-gossip all drive rounds explicitly).
	Manual bool
	// Placement scopes peer sampling to co-group nodes; nil gossips with
	// every node (full replication).
	Placement *placement.Ring
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	return c
}

// seedOf is the seed of a node's peer sampling, derived from its ID and
// never from the time: nodes of one cluster sample different peer
// permutations, but every run of the same cluster repeats them, so chaos
// schedules replay bit-for-bit.
func seedOf(self transport.NodeID) int64 {
	h := fnv.New64a()
	h.Write([]byte(self))
	return int64(h.Sum64())
}

// Option configures a Manager.
type Option func(*Manager)

// WithObserver attaches the manager to a shared observability scope;
// without it the manager inherits the transport's scope.
func WithObserver(o *obs.Observer) Option {
	return func(g *Manager) { g.obs = o }
}

// Exchange reports one exchange with a peer.
type Exchange struct {
	Peer   transport.NodeID
	InSync bool
	Pulled int // records the peer sent
	Pushed int // states owed to the peer
}

// Manager is one node's anti-entropy gossip service.
type Manager struct {
	self     transport.NodeID
	net      transport.Transport
	repl     *replication.Manager
	ring     *placement.Ring
	interval time.Duration
	fanout   int
	obs      *obs.Observer

	// ctx bounds every exchange issued by the background loop; Stop cancels
	// it.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	rng     *rand.Rand
	streak  map[transport.NodeID]int64 // consecutive divergent exchanges per peer
	started bool
	stopped bool
	stop    chan struct{}
	done    chan struct{}

	rounds      *obs.Counter // gossip rounds initiated
	exchanges   *obs.Counter // exchanges initiated
	insync      *obs.Counter // exchanges that found the peer in sync
	unreachable *obs.Counter // exchanges lost to partitions/crashes
	convRounds  *obs.Counter // divergent exchanges paid before re-sync
	resyncs     *obs.Counter // divergence episodes closed (mean = convRounds/resyncs)
}

// New creates a gossip manager for self over the given transport and
// replication state. Call Start to run the periodic loop; Manual
// configurations drive RunRound directly.
func New(net transport.Transport, self transport.NodeID, repl *replication.Manager, cfg Config, opts ...Option) (*Manager, error) {
	if net == nil || repl == nil {
		return nil, errors.New("gossip: transport and replication manager are required")
	}
	cfg = cfg.normalize()
	g := &Manager{
		self:     self,
		net:      net,
		repl:     repl,
		ring:     cfg.Placement,
		interval: cfg.Interval,
		fanout:   cfg.Fanout,
		rng:      rand.New(rand.NewSource(seedOf(self))),
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
	g.unreachable = g.obs.Counter("gossip.unreachable")
	g.convRounds = g.obs.Counter("gossip.convergence_rounds")
	g.resyncs = g.obs.Counter("gossip.resyncs")
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

// RunRound performs one gossip round: sample Fanout random peers and run the
// exchange with each in order. Unreachable peers are counted and
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

// GossipWith runs the repair exchange (replication.Manager.ReconcileWith)
// with the peer: one request and one reply, then at most one repl.batch of
// what the peer is owed. A write-write conflict it surfaces goes to
// replication.MostUpdatesResolver.
func (g *Manager) GossipWith(ctx context.Context, peer transport.NodeID) (Exchange, error) {
	g.exchanges.Inc()
	rep, err := g.repl.ReconcileWith(ctx, []transport.NodeID{peer}, replication.MostUpdatesResolver)
	ex := Exchange{Peer: peer, InSync: rep.InSync == 1, Pulled: rep.Pulled, Pushed: rep.Pushed}
	if err == nil && rep.PeersContacted == 0 {
		err = fmt.Errorf("gossip: exchange with %s: %w", peer, transport.ErrUnreachable)
	}
	if err != nil {
		if errors.Is(err, transport.ErrUnreachable) {
			g.unreachable.Inc()
		}
		return ex, err
	}
	if ex.InSync {
		g.insync.Inc()
		g.settle(peer)
	} else {
		g.diverged(peer)
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

// WireSize measures the gob encoding of a payload the way the wire transport
// would frame it (type-prefixed interface encoding): experiments size
// exchanges in real bytes with it, whichever transport carried them.
func WireSize(v any) int64 {
	var c countWriter
	if err := gob.NewEncoder(&c).Encode(&v); err != nil {
		return 0
	}
	return c.n
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
