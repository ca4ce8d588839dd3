package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dedisys/internal/chaos"
	"dedisys/internal/constraint"
	"dedisys/internal/group"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/placement"
	"dedisys/internal/replication"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

// outDir holds everything a run leaves behind (trace files, reports, the
// wire workload's unix sockets). It is relative so socket paths stay far
// below the 108-byte sun_path limit wherever the checkout lives, and it is
// inside the checkout because the benchmark may write nowhere else.
const outDir = "benchmark/out"

// regClass is the chaos harness's single-register class; every workload
// drives it so the same interceptor chain, constraint lookup and validation
// run on all four.
const regClass = "Reg"

// clusterSpec is the shape of one workload's cluster.
type clusterSpec struct {
	nodes    int
	groups   int // 0 = full replication
	rf       int
	protocol replication.Protocol
	netCost  time.Duration // simulated per-message cost; 0 or >= 1ms only
	wire     bool          // unix-socket wiretransport endpoints instead of the simulator
	objects  int
	// homeOf places object i when the cluster is fully replicated; under
	// sharded placement the ring decides and homeOf is ignored.
	homeOf func(i, nodes int) int
}

// cluster is an assembled set of nodes plus the object population the
// workload drives. It mirrors node.NewCluster and cmd/dedisys-node, but
// hands every node the transport it is given — the only way to interpose
// the tracing decorator, which must be in place when handlers register.
type cluster struct {
	spec  clusterSpec
	nodes []*node.Node
	net   *transport.Network // nil on the wire
	wires []*wiretransport.Wire
	ring  *placement.Ring
	obs   *obs.Observer
	sock  string  // socket directory of a wire cluster
	lay   *layout // the object population
}

// layout is the object population as the generators and the checker see it.
type layout struct {
	nodes    int
	ids      []object.ID
	home     []int   // object -> node index of its home
	replicas [][]int // object -> node indexes holding a replica, home first
}

// nodeIDs names a cluster's members n1..nN.
func nodeIDs(n int) []transport.NodeID {
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	return ids
}

// newRing builds the spec's sharded placement, nil under full replication.
func newRing(spec clusterSpec) (*placement.Ring, error) {
	if spec.groups == 0 {
		return nil, nil
	}
	return placement.New(nodeIDs(spec.nodes), placement.Config{Groups: spec.groups, ReplicationFactor: spec.rf})
}

// newLayout places the population: by the ring when sharded, by homeOf with
// a replica on every node otherwise.
func newLayout(spec clusterSpec, ring *placement.Ring) *layout {
	lay := &layout{nodes: spec.nodes, ids: make([]object.ID, spec.objects), home: make([]int, spec.objects), replicas: make([][]int, spec.objects)}
	index := make(map[transport.NodeID]int, spec.nodes)
	for i, id := range nodeIDs(spec.nodes) {
		index[id] = i
	}
	for i := range lay.ids {
		lay.ids[i] = objectID(i)
		if ring != nil {
			_, reps := ring.Place(lay.ids[i])
			for _, r := range reps {
				lay.replicas[i] = append(lay.replicas[i], index[r])
			}
		} else {
			h := spec.homeOf(i, spec.nodes)
			lay.replicas[i] = append(lay.replicas[i], h)
			for j := 0; j < spec.nodes; j++ {
				if j != h {
					lay.replicas[i] = append(lay.replicas[i], j)
				}
			}
		}
		lay.home[i] = lay.replicas[i][0]
	}
	return lay
}

func objectID(i int) object.ID { return object.ID(fmt.Sprintf("o%05d", i)) }

// buildCluster assembles the nodes; tr == nil leaves the transport
// undecorated (every end-to-end number is measured that way).
func buildCluster(spec clusterSpec, tr *tracer) (*cluster, error) {
	c := &cluster{spec: spec, obs: obs.New()}
	ids := nodeIDs(spec.nodes)
	ring, err := newRing(spec)
	if err != nil {
		return nil, err
	}
	c.ring, c.lay = ring, newLayout(spec, ring)
	opts := func(id transport.NodeID, net transport.Transport, gms *group.Membership) node.Options {
		return node.Options{
			ID: id, Net: net, GMS: gms,
			Protocol:     spec.protocol,
			ThreatPolicy: threat.IdenticalOnce,
			RepoCache:    true,
			Placement:    c.ring,
			Obs:          c.obs,
		}
	}
	if spec.wire {
		if err := c.buildWire(ids, tr, opts); err != nil {
			c.close()
			return nil, err
		}
	} else {
		var netOpts []transport.Option
		if spec.netCost > 0 {
			netOpts = append(netOpts, transport.WithCost(transport.CostModel{PerMessage: spec.netCost}))
		}
		c.net = transport.NewNetwork(append(netOpts, transport.WithObserver(c.obs))...)
		for _, id := range ids {
			if err := c.net.Join(id); err != nil {
				return nil, err
			}
		}
		var net transport.Transport = c.net
		if tr != nil {
			net = &simTraced{Network: c.net, core: traceCore{tr: tr, inner: c.net}}
		}
		gms := group.NewMembership(net)
		for _, id := range ids {
			n, err := node.New(opts(id, net, gms))
			if err != nil {
				return nil, err
			}
			c.nodes = append(c.nodes, n)
		}
	}
	for _, n := range c.nodes {
		n.RegisterSchema(chaos.Schema())
		if err := n.DeployConstraints([]constraint.Configured{chaos.TradeableConstraint()}); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// buildWire starts one wiretransport endpoint, membership service and node
// per member — the cmd/dedisys-node assembly minus the process boundary —
// and refuses to return before every endpoint reached every other.
func (c *cluster) buildWire(ids []transport.NodeID, tr *tracer, opts func(transport.NodeID, transport.Transport, *group.Membership) node.Options) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "sock")
	if err != nil {
		return err
	}
	c.sock = dir
	peers := make(map[transport.NodeID]string, len(ids))
	for _, id := range ids {
		peers[id] = "unix:" + filepath.Join(dir, string(id))
	}
	for _, id := range ids {
		w, err := wiretransport.New(id, peers, wiretransport.WithObserver(c.obs))
		if err != nil {
			return err
		}
		if err := w.Start(); err != nil {
			return err
		}
		c.wires = append(c.wires, w)
		var net transport.Transport = w
		if tr != nil {
			net = &wireTraced{Wire: w, core: traceCore{tr: tr, inner: w}}
		}
		n, err := node.New(opts(id, net, group.NewMembership(net)))
		if err != nil {
			return err
		}
		c.nodes = append(c.nodes, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, w := range c.wires {
		if err := w.WaitPeers(ctx); err != nil {
			return fmt.Errorf("wire peers not all reachable before timing: %w", err)
		}
	}
	return nil
}

// populate creates the object population through each object's home node
// and waits until every replica holds every create.
func (c *cluster) populate() error {
	all := nodeIDs(len(c.nodes))
	for i, id := range c.lay.ids {
		home := c.nodes[c.lay.home[i]]
		info := replication.Info{Home: home.ID, Replicas: all}
		if err := home.Create(regClass, id, object.State{"value": int64(0)}, info); err != nil {
			return fmt.Errorf("create %s: %w", id, err)
		}
	}
	c.quiesce()
	return nil
}

// quiesce joins every background straggler send. Counters, convergence
// checks and teardown all come after it.
func (c *cluster) quiesce() {
	for _, n := range c.nodes {
		n.Repl.WaitPropagation()
	}
}

// view presents the nodes to the chaos package's exported checkers.
func (c *cluster) view() *node.Cluster {
	return &node.Cluster{Net: c.net, Nodes: c.nodes, Obs: c.obs, Ring: c.ring}
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Stop()
	}
	for _, w := range c.wires {
		w.Close()
	}
	if c.sock != "" {
		os.RemoveAll(c.sock)
	}
}
