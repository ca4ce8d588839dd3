package bench

import (
	"fmt"
	"strings"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/obs"
)

// Commit fan-out experiment: a commit ships one batch per destination in one
// multicast round however many objects the transaction dirtied, so writing K
// objects in one transaction pays one round of simulated network time where
// K one-object transactions pay K. This experiment runs both shapes of the
// same K writes through the one commit path and reports the wall-clock spent
// committing, the commit-time multicast rounds and store writes (the
// deterministic cost-model view, independent of host jitter) and the
// resulting speedup.

// fanOutID names the i-th object of the fan-out workload.
func fanOutID(i int) object.ID { return object.ID(fmt.Sprintf("fan%04d", i)) }

// newFanOutCluster builds a size-node cluster (CCM off: pure replication
// cost) with k objects replicated on every node, writable from node 0.
func newFanOutCluster(cfg Config, size, k int) (*node.Cluster, *node.Node, []object.ID, error) {
	c, err := newBenchCluster(cfg, clusterOpts{size: size, disableCCM: true}, constraint.HardInvariant)
	if err != nil {
		return nil, nil, nil, err
	}
	n := c.Node(0)
	info := c.AllReplicas(n.ID)
	ids := make([]object.ID, k)
	for i := range ids {
		ids[i] = fanOutID(i)
		if err := n.Create(beanClass, ids[i], object.State{"value": int64(0)}, info); err != nil {
			c.Stop()
			return nil, nil, nil, fmt.Errorf("create %s: %w", ids[i], err)
		}
	}
	return c, n, ids, nil
}

// fanOutCommit runs one transaction writing every object and returns the
// wall-clock duration of the commit alone (the propagation phase).
func fanOutCommit(n *node.Node, ids []object.ID, round int) (time.Duration, error) {
	t := n.Begin()
	for _, id := range ids {
		if _, err := n.InvokeTx(t, id, "SetValue", int64(round)); err != nil {
			_ = t.Rollback()
			return 0, fmt.Errorf("invoke %s: %w", id, err)
		}
	}
	start := time.Now()
	if err := t.Commit(); err != nil {
		return 0, fmt.Errorf("commit: %w", err)
	}
	return time.Since(start), nil
}

// fanOutWrite writes every object once, txSize objects per transaction, and
// returns the wall-clock spent committing.
func fanOutWrite(n *node.Node, ids []object.ID, round, txSize int) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < len(ids); i += txSize {
		d, err := fanOutCommit(n, ids[i:min(i+txSize, len(ids))], round)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// fanOutMeasurement is one arm's aggregate over iters writes of all k objects.
type fanOutMeasurement struct {
	PerCommit time.Duration // mean wall-clock committing one write of all k objects
	Rounds    int64         // commit-time multicast rounds over all writes
	BatchSize int64         // total ops shipped through batch rounds
	Writes    int64         // store writes over all nodes and writes: one per replica and commit
}

// measureCommitFanOut times iters writes of k objects on a size-node cluster,
// each write split into transactions of txSize objects: k for the batched
// arm, 1 for the per-object arm. The rounds and store-write counts come from
// the replication.batch.rounds and persistence.writes counters and are
// deterministic: one round per commit, so one per write in the batched arm
// and k in the per-object arm, and one store write per replica and commit.
func measureCommitFanOut(cfg Config, size, k, iters, txSize int) (fanOutMeasurement, error) {
	var m fanOutMeasurement
	// A private observer isolates the round counters from other experiments
	// sharing cfg.Obs.
	cfg.Obs = obs.New()
	c, n, ids, err := newFanOutCluster(cfg, size, k)
	if err != nil {
		return m, err
	}
	defer c.Stop()

	roundsBefore := sumCounters(cfg.Obs, ".replication.batch.rounds")
	sizeBefore := sumCounters(cfg.Obs, ".replication.batch.size")
	writesBefore := sumCounters(cfg.Obs, ".persistence.writes")
	var total time.Duration
	for i := 0; i < iters; i++ {
		d, err := fanOutWrite(n, ids, i, txSize)
		if err != nil {
			return m, err
		}
		total += d
	}
	m.PerCommit = total / time.Duration(iters)
	m.Rounds = sumCounters(cfg.Obs, ".replication.batch.rounds") - roundsBefore
	m.BatchSize = sumCounters(cfg.Obs, ".replication.batch.size") - sizeBefore
	m.Writes = sumCounters(cfg.Obs, ".persistence.writes") - writesBefore
	return m, nil
}

// sumCounters totals every per-node counter with the given name suffix.
func sumCounters(o *obs.Observer, suffix string) int64 {
	var total int64
	for name, v := range o.Snapshot().Counters {
		if strings.HasSuffix(name, suffix) {
			total += v
		}
	}
	return total
}

// runCommitFanOut regenerates the one-transaction-vs-K-transactions commit
// propagation comparison: one row per write size K on a 4-node cluster.
func runCommitFanOut(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	const size = 4
	res := &Result{ID: "exp-batch", Title: "commit fan-out: one K-object transaction vs K one-object transactions",
		Columns: []string{"batched_us", "per_object_us", "speedup", "rounds_batched", "rounds_per_object", "writes_batched", "writes_per_object"}}
	iters := cfg.Runs
	if iters < 2 {
		iters = 2
	}
	for _, k := range []int{1, 2, 4, 8} {
		batched, err := measureCommitFanOut(cfg, size, k, iters, k)
		if err != nil {
			return nil, fmt.Errorf("batched K=%d: %w", k, err)
		}
		perObject, err := measureCommitFanOut(cfg, size, k, iters, 1)
		if err != nil {
			return nil, fmt.Errorf("per-object K=%d: %w", k, err)
		}
		speedup := 0.0
		if batched.PerCommit > 0 {
			speedup = float64(perObject.PerCommit) / float64(batched.PerCommit)
		}
		res.AddRow(fmt.Sprintf("K=%d dirty objects", k),
			float64(batched.PerCommit.Nanoseconds())/1e3,
			float64(perObject.PerCommit.Nanoseconds())/1e3,
			speedup,
			float64(batched.Rounds),
			float64(perObject.Rounds),
			float64(batched.Writes),
			float64(perObject.Writes))
	}
	res.AddNote("%d nodes, %d writes of K objects per case, simulated per-message cost %s, per-store-write cost %s", size, iters, cfg.NetCost, cfg.StoreCost)
	res.AddNote("rounds are commit-time multicast rounds, one per commit: K one-object transactions pay K, one K-object transaction pays 1")
	res.AddNote("writes are store writes summed over the nodes, one per replica and commit: K one-object transactions pay K per replica, one K-object transaction pays 1")
	return res, nil
}
