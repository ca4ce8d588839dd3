package bench

import (
	"fmt"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/node"
	"dedisys/internal/object"
)

// Sharded placement experiment: the same 8-node cluster carrying the same
// object population under full replication and under a consistent-hash ring
// with G replica groups of R nodes each. Sharding cuts two costs that full
// replication pays on every node and every commit: the per-node replica
// footprint (objects/node falls from the whole population to ~R/N of it)
// and the commit fan-out (a group-local commit multicasts to R-1 peers
// instead of N-1). The commit latency stays flat — propagation is one
// concurrent multicast round either way.

// shardMeasurement aggregates one placement configuration's numbers.
type shardMeasurement struct {
	ObjectsPerNode float64       // mean Registry population per node
	MsgsPerCommit  float64       // delivered network messages per commit
	PerCommit      time.Duration // mean wall-clock per single-object commit
}

// shardHome returns the node that coordinates writes to id: its ring home
// when the cluster is sharded, node 0 under full replication.
func shardHome(c *node.Cluster, id object.ID) *node.Node {
	if c.Ring == nil {
		return c.Node(0)
	}
	_, replicas := c.Ring.Place(id)
	return c.ByID(replicas[0])
}

// measureShard builds a size-node cluster (CCM off: pure replication cost)
// with the given placement (groups 0 = full replication), creates
// entities objects through their home nodes, then commits ops single-object
// updates — each invoked on the object's home, the group-local fast path.
func measureShard(cfg Config, size, groups, rf, entities, ops int) (shardMeasurement, error) {
	var m shardMeasurement
	c, err := newBenchCluster(cfg, clusterOpts{size: size, disableCCM: true, groups: groups, rf: rf}, constraint.HardInvariant)
	if err != nil {
		return m, err
	}
	defer c.Stop()

	for i := 0; i < entities; i++ {
		id := beanID(i)
		home := shardHome(c, id)
		if err := home.Create(beanClass, id, object.State{"value": int64(0)}, c.AllReplicas(home.ID)); err != nil {
			return m, fmt.Errorf("create %s: %w", id, err)
		}
	}
	var total int
	for _, n := range c.Nodes {
		total += n.Registry.Len()
	}
	m.ObjectsPerNode = float64(total) / float64(size)

	msgs := c.Net.Observer().Counter("transport.messages")
	sent := msgs.Load()
	start := time.Now()
	for i := 0; i < ops; i++ {
		id := beanID(i % entities)
		if _, err := shardHome(c, id).Invoke(id, "SetValue", int64(i)); err != nil {
			return m, fmt.Errorf("update %s: %w", id, err)
		}
	}
	m.PerCommit = time.Since(start) / time.Duration(ops)
	m.MsgsPerCommit = float64(msgs.Load()-sent) / float64(ops)
	return m, nil
}

// runShard regenerates the placement comparison: one row per configuration
// on an 8-node cluster over the configured object population.
func runShard(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	const size = 8
	rf := 3
	if cfg.ReplicationFactor > 0 {
		rf = cfg.ReplicationFactor
	}
	res := &Result{ID: "exp-shard", Title: "sharded placement vs full replication",
		Columns: []string{"objects/node", "msgs/commit", "commit_us"}}
	type shardCase struct {
		label  string
		groups int
		rf     int
	}
	cases := []shardCase{{"full replication", 0, 0}}
	gs := []int{2, 4}
	if cfg.Groups > 0 {
		gs = []int{cfg.Groups}
	}
	for _, g := range gs {
		cases = append(cases, shardCase{fmt.Sprintf("sharded G=%d R=%d", g, rf), g, rf})
	}
	for _, sc := range cases {
		m, err := measureShard(cfg, size, sc.groups, sc.rf, cfg.Entities, cfg.Ops)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.label, err)
		}
		res.AddRow(sc.label, m.ObjectsPerNode, m.MsgsPerCommit, float64(m.PerCommit.Nanoseconds())/1e3)
	}
	res.AddNote("%d nodes, %d objects, %d home-invoked single-object commits per case", size, cfg.Entities, cfg.Ops)
	res.AddNote("sharding cuts objects/node to ~R/N of the population and commit fan-out to R-1 messages; latency stays flat (one multicast round either way)")
	return res, nil
}
