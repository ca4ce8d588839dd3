package bench

import (
	"context"
	"fmt"
	"sync/atomic"

	"dedisys/internal/chaos"
	"dedisys/internal/constraint"
	"dedisys/internal/gossip"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/reconcile"
	"dedisys/internal/transport"
)

// Anti-entropy experiment: the same heal storm — an 8-node sharded cluster
// (G=4, R=3) partitioned in half with concurrent writes on both sides —
// repaired by gossip rounds versus by driver-led heal reconciliation. Both
// arms run the one repair exchange (ReconcileWith); they differ in who
// drives it with whom: a gossip round is every node exchanging with a
// sampled fanout of co-group peers, a reconcile sweep every node driving a
// pass with every other node. Every message of either arm is sized on the
// way (meteredNet); once in sync an exchange moves no record and its bytes
// are the digest's.

const (
	gossipBenchSize   = 8
	gossipBenchGroups = 4
	gossipBenchRF     = 3
	gossipMaxRounds   = 32
	gossipSteadyRound = 3 // extra rounds measured after convergence
)

// gossipBenchObjects caps the population: the point is per-round shape, not
// table size, and the quick config keeps CI fast.
func gossipBenchObjects(cfg Config) int {
	n := cfg.Entities
	if n > 48 {
		n = 48
	}
	if n < 8 {
		n = 8
	}
	return n
}

// meteredNet is one node's view of the network that adds the gob size
// (gossip.WireSize) of every request it sends, and of the reply, to a counter
// the cluster's nodes share: what the traffic weighs on the wire, whichever
// transport carried it.
type meteredNet struct {
	transport.Transport
	bytes *atomic.Int64
}

func (n meteredNet) Send(ctx context.Context, from, to transport.NodeID, kind string, payload any) (any, error) {
	reply, err := n.Transport.Send(ctx, from, to, kind, payload)
	n.bytes.Add(gossip.WireSize(payload) + gossip.WireSize(reply))
	return reply, err
}

// gossipStorm builds the cluster, creates the population, splits the
// cluster in half, writes on both sides, and heals — leaving a genuinely
// divergent cluster for the repair mechanism under test.
func gossipStorm(cfg Config, withGossip bool, meter *atomic.Int64) (*node.Cluster, []object.ID, error) {
	opts := clusterOpts{
		size:       gossipBenchSize,
		disableCCM: true, // pure replication cost; P4 keeps both sides writable
		groups:     gossipBenchGroups,
		rf:         gossipBenchRF,
		meter:      meter,
	}
	if withGossip {
		fanout := cfg.GossipFanout
		if fanout <= 0 {
			fanout = 2
		}
		opts.gossip = &gossip.Config{Manual: true, Fanout: fanout}
	}
	c, err := newBenchCluster(cfg, opts, constraint.HardInvariant)
	if err != nil {
		return nil, nil, err
	}
	var ids []object.ID
	for i := 0; i < gossipBenchObjects(cfg); i++ {
		id := beanID(i)
		home := shardHome(c, id)
		if err := home.Create(beanClass, id, object.State{"value": int64(0)}, c.AllReplicas(home.ID)); err != nil {
			c.Stop()
			return nil, nil, fmt.Errorf("create %s: %w", id, err)
		}
		ids = append(ids, id)
	}
	all := c.IDs()
	c.Partition(all[:gossipBenchSize/2], all[gossipBenchSize/2:])
	// One write attempt per object from each side; coordinators cut off from
	// an object's replicas reject the write, which is part of the storm.
	for i, id := range ids {
		_, _ = c.Node(i%(gossipBenchSize/2)).Invoke(id, "SetValue", int64(1000+i))
		_, _ = c.Node(gossipBenchSize/2+i%(gossipBenchSize/2)).Invoke(id, "SetValue", int64(2000+i))
	}
	c.Heal()
	return c, ids, nil
}

func runGossip(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	res := &Result{
		ID:    "exp-gossip",
		Title: fmt.Sprintf("Anti-entropy gossip vs heal reconciliation (N=%d, G=%d, R=%d heal storm)", gossipBenchSize, gossipBenchGroups, gossipBenchRF),
		Columns: []string{
			"rounds", "records_shipped", "bytes_shipped",
			"steady_records_per_round", "steady_bytes_per_round",
		},
	}
	ctx := context.Background()

	// Case 1: gossip-only repair.
	var gBytes atomic.Int64
	gc, ids, err := gossipStorm(cfg, true, &gBytes)
	if err != nil {
		return nil, err
	}
	defer gc.Stop()
	// round runs one gossip round on every node and returns the records the
	// exchanges moved: pulled from a peer or owed to one.
	round := func() (records int64, err error) {
		for _, n := range gc.Nodes {
			exs, err := n.Gossip.RunRound(ctx)
			if err != nil {
				return 0, fmt.Errorf("gossip round: %w", err)
			}
			for _, ex := range exs {
				records += int64(ex.Pulled + ex.Pushed)
			}
		}
		return records, nil
	}
	gBytes.Store(0) // the storm's own traffic is not the repair's
	var recordsShipped int64
	rounds := 0
	for ; rounds < gossipMaxRounds; rounds++ {
		if len(chaos.CheckConverged(gc, ids)) == 0 {
			break
		}
		r, err := round()
		if err != nil {
			return nil, err
		}
		recordsShipped += r
	}
	if len(chaos.CheckConverged(gc, ids)) != 0 {
		return nil, fmt.Errorf("gossip did not converge within %d rounds: %v", gossipMaxRounds, chaos.CheckConverged(gc, ids))
	}
	bytesShipped := gBytes.Swap(0)

	// Steady state: extra rounds on the converged cluster move no record;
	// what they ship is digests.
	var steadyRecords int64
	for r := 0; r < gossipSteadyRound; r++ {
		n, err := round()
		if err != nil {
			return nil, err
		}
		steadyRecords += n
	}
	res.AddRow("gossip (anti-entropy)",
		float64(rounds), float64(recordsShipped), float64(bytesShipped),
		float64(steadyRecords)/float64(gossipSteadyRound), float64(gBytes.Load())/gossipSteadyRound)

	// Case 2: driver-led heal reconciliation on an identical storm. A
	// driver pass only repairs the objects that driver hosts, so under
	// sharded placement converging the whole cluster takes one pass per
	// node — that full sweep is the unit comparable to one gossip round
	// (which also touches every node once).
	var rBytes atomic.Int64
	rc, rids, err := gossipStorm(cfg, false, &rBytes)
	if err != nil {
		return nil, err
	}
	defer rc.Stop()
	sweep := func() (records int64, err error) {
		for _, driver := range rc.Nodes {
			var peers []transport.NodeID
			for _, id := range rc.IDs() {
				if id != driver.ID {
					peers = append(peers, id)
				}
			}
			rep, err := reconcile.Run(ctx, driver, peers, reconcile.Handlers{})
			if err != nil {
				return 0, fmt.Errorf("reconcile from %s: %w", driver.ID, err)
			}
			records += int64(rep.Replica.Pulled + rep.Replica.Pushed)
		}
		return records, nil
	}
	rBytes.Store(0)
	recRecords, err := sweep()
	if err != nil {
		return nil, err
	}
	recBytes := rBytes.Swap(0)
	if v := chaos.CheckConverged(rc, rids); len(v) != 0 {
		res.AddNote("heal-reconcile left divergence after a full sweep: %v", v)
	}
	// Steady state for reconciliation: a sweep over the converged cluster,
	// every driver exchanging digests with every other node.
	steadyRecRecords, err := sweep()
	if err != nil {
		return nil, err
	}
	res.AddRow("heal-reconcile",
		1, float64(recRecords), float64(recBytes),
		float64(steadyRecRecords), float64(rBytes.Load()))

	res.AddNote("%d objects; heal storm = half/half partition with concurrent writes on both sides", gossipBenchObjects(cfg))
	res.AddNote("rounds: full cluster sweeps until every replica matched state+VV (gossip) / driver passes (reconcile)")
	res.AddNote("records: pulled from a peer or owed to one; bytes: gob size of every request and reply sent, naming sync of a heal pass included")
	res.AddNote("steady state: per-round traffic after convergence — digests only, no record moves")
	return res, nil
}
