package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/group"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

// Real-wire experiment: every other experiment measures over the simulated
// Network, whose per-hop cost is a configured constant. This one assembles
// the same middleware stack over the gob/unix-socket wire transport — three
// endpoints in this process, each dialing the others through the kernel —
// and times the same single-object commit. The comparison calibrates the
// simulation: the simulated hop is honest when the wire row lands in the
// same order of magnitude as a loopback socket round trip.

// wireBenchSize is fixed at 3 nodes, the smallest cluster where a commit
// fans out to a majority of remote replicas.
const wireBenchSize = 3

// wireCluster is an in-process cluster over real unix sockets: one Wire
// endpoint, membership service and node per member, all sharing nothing but
// the socket directory.
type wireCluster struct {
	nodes []*node.Node
	wires []*wiretransport.Wire
	dir   string
}

// newWireCluster builds and starts a size-node cluster over unix sockets in
// a private temp directory. Each node runs its own static-view membership
// over its own Wire endpoint — exactly the cmd/dedisys-node assembly, minus
// the process boundary.
func newWireCluster(cfg Config, size int) (*wireCluster, error) {
	var proto replication.Protocol
	if cfg.Protocol != "" {
		p, err := replication.ProtocolByName(cfg.Protocol, cfg.QuorumThreshold)
		if err != nil {
			return nil, err
		}
		proto = p
	}
	dir, err := os.MkdirTemp("", "dedisys-wire")
	if err != nil {
		return nil, err
	}
	peers := make(map[transport.NodeID]string, size)
	ids := make([]transport.NodeID, 0, size)
	for i := 0; i < size; i++ {
		id := transport.NodeID(fmt.Sprintf("w%d", i))
		ids = append(ids, id)
		peers[id] = "unix:" + filepath.Join(dir, string(id)+".sock")
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	c := &wireCluster{dir: dir}
	for _, id := range ids {
		w, err := wiretransport.New(id, peers)
		if err != nil {
			c.Stop()
			return nil, err
		}
		if err := w.Start(); err != nil {
			c.Stop()
			return nil, err
		}
		c.wires = append(c.wires, w)
		n, err := node.New(node.Options{
			ID:         id,
			Net:        w,
			GMS:        group.NewMembership(w),
			Protocol:   proto,
			RepoCache:  true,
			DisableCCM: true,
			Obs:        cfg.Obs,
		})
		if err != nil {
			c.Stop()
			return nil, err
		}
		n.RegisterSchema(beanSchema())
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// WaitPeers blocks until every endpoint answered every other endpoint's
// liveness probe, so dial cost stays out of the first sample.
func (c *wireCluster) WaitPeers(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, w := range c.wires {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		err := w.WaitPeers(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("wait peers on endpoint %d: %w", i, err)
		}
	}
	return nil
}

func (c *wireCluster) Stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
	for _, w := range c.wires {
		w.Close()
	}
	os.RemoveAll(c.dir)
}

// wireMeasurement aggregates one backend's commit-latency samples.
type wireMeasurement struct {
	P50, P95, Mean time.Duration
	Messages       int64 // transport-level deliveries observed by the coordinator
}

// summarize reduces samples to the reported statistics.
func summarize(samples []time.Duration) wireMeasurement {
	var hist obs.Histogram
	for _, s := range samples {
		hist.Observe(s)
	}
	snap := hist.Snapshot()
	return wireMeasurement{
		P50:  snap.Percentile(0.50),
		P95:  snap.Percentile(0.95),
		Mean: snap.Mean,
	}
}

// commitSamples creates one fully replicated object homed on n and times
// iters single-object commits against it.
func commitSamples(n *node.Node, replicas []transport.NodeID, iters int) ([]time.Duration, error) {
	const oid = object.ID("wire0")
	info := replication.Info{Home: n.ID, Replicas: replicas}
	if err := n.Create(beanClass, oid, object.State{"value": int64(0)}, info); err != nil {
		return nil, fmt.Errorf("create %s: %w", oid, err)
	}
	samples := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		d, err := fanOutCommit(n, []object.ID{oid}, i)
		if err != nil {
			return nil, err
		}
		samples = append(samples, d)
	}
	// Join background straggler sends (quorum mode) before the caller tears
	// the cluster down under them.
	n.Repl.WaitPropagation()
	return samples, nil
}

// measureWire times iters commits on the unix-socket cluster.
func measureWire(cfg Config, iters int) (wireMeasurement, error) {
	c, err := newWireCluster(cfg, wireBenchSize)
	if err != nil {
		return wireMeasurement{}, err
	}
	defer c.Stop()
	if err := c.WaitPeers(10 * time.Second); err != nil {
		return wireMeasurement{}, err
	}
	n := c.nodes[0]
	samples, err := commitSamples(n, c.wires[0].Nodes(), iters)
	if err != nil {
		return wireMeasurement{}, err
	}
	m := summarize(samples)
	m.Messages = c.wires[0].Observer().Counter("transport.messages").Load()
	return m, nil
}

// measureSimHop times iters commits on the simulated Network with the
// configured per-message cost.
func measureSimHop(cfg Config, iters int) (wireMeasurement, error) {
	c, err := newBenchCluster(cfg, clusterOpts{size: wireBenchSize, disableCCM: true}, constraint.HardInvariant)
	if err != nil {
		return wireMeasurement{}, err
	}
	defer c.Stop()
	n := c.Node(0)
	samples, err := commitSamples(n, c.IDs(), iters)
	if err != nil {
		return wireMeasurement{}, err
	}
	return summarize(samples), nil
}

// wireBenchIters bounds the sample count: real sockets cost real wall-clock,
// so the ceiling sits below the simulated experiments'.
func wireBenchIters(cfg Config) int {
	iters := cfg.Ops
	if iters < 20 {
		iters = 20
	}
	if iters > 200 {
		iters = 200
	}
	return iters
}

// runWire regenerates the wire-vs-simulation commit latency comparison at
// N=3: same stack, same protocol, same workload — only the transport under
// group.Comm differs.
func runWire(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	iters := wireBenchIters(cfg)
	res := &Result{ID: "exp-wire", Title: "commit latency: gob/unix-socket wire transport vs simulated hop (N=3)",
		Columns: []string{"p50_us", "p95_us", "mean_us"}}

	wire, err := measureWire(cfg, iters)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	sim, err := measureSimHop(cfg, iters)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	res.AddRow("wire (unix sockets)", us(wire.P50), us(wire.P95), us(wire.Mean))
	res.AddRow("simulated hop", us(sim.P50), us(sim.P95), us(sim.Mean))
	if sim.P50 > 0 {
		res.AddNote("wire/sim p50 ratio = %.1fx over %d commits per backend", float64(wire.P50)/float64(sim.P50), iters)
	}
	res.AddNote("simulated per-message cost %s; wire coordinator shipped %d frames (length-prefixed; replica writes self-encoded, the rest gob)",
		cfg.NetCost, wire.Messages)
	return res, nil
}

// us converts a duration to microseconds for a result cell.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
