package bench

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
)

// TestShardedQuorumStress is the repo's many-client mixed run on the quorum
// cluster (8 nodes, G=4, R=3, quorum commit): 4×GOMAXPROCS closed-loop
// clients walk their stride of one seeded operation list — 90 % Value reads
// rotating over the object's replicas, 10 % SetValue at the object's home —
// over 2048 objects, so several clients write the same object and
// replica-local reads meet remote applies. Every operation must return nil.
// It asserts nothing about time: load and latency are the benchmark's
// (benchmark/README.md). 200 000 operations, 20 000 under -short, 150 000
// under -race, where it guards what orders a replica-local read
// (Entity.MustGet ← dispatch, under the node's object lock) against a remote
// install (Entity.ApplyState ← applyOps, under the replication manager's):
// the entity's own lock, nothing else. The small, millisecond form is
// internal/node's TestReplicaReadsDuringRemoteInstalls.
func TestShardedQuorumStress(t *testing.T) {
	const (
		objects   = 2048
		readRatio = 0.9
		seed      = 42
	)
	ops := 200_000
	switch {
	case raceEnabled:
		ops = 150_000
	case testing.Short():
		ops = 20_000
	}

	c, err := newBenchCluster(QuickConfig(), quorumCluster, constraint.AsyncInvariant)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ids := make([]object.ID, objects)
	for i := range ids {
		ids[i] = beanID(i)
		home := shardHome(c, ids[i])
		if err := home.Create(beanClass, ids[i], object.State{"value": int64(0)}, c.AllReplicas(home.ID)); err != nil {
			t.Fatalf("create %s: %v", ids[i], err)
		}
	}
	// A quorum commit returns at the majority ack. Join the background
	// straggler sends: after the creates, so no read reaches a replica ahead
	// of the object; after the run, so Stop does not tear the cluster down
	// under them.
	quiesce := func() {
		for _, n := range c.Nodes {
			n.Repl.WaitPropagation()
		}
	}
	quiesce()

	type op struct {
		id   object.ID
		read bool
	}
	rng := rand.New(rand.NewSource(seed))
	list := make([]op, ops)
	for i := range list {
		list[i] = op{id: ids[rng.Intn(objects)], read: rng.Float64() < readRatio}
	}

	clients := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(list); i += clients {
				o := list[i]
				var err error
				if o.read {
					_, replicas := c.Ring.Place(o.id)
					_, err = c.ByID(replicas[i%len(replicas)]).Invoke(o.id, "Value")
				} else {
					_, err = shardHome(c, o.id).Invoke(o.id, "SetValue", int64(i))
				}
				if err != nil {
					t.Errorf("op %d (%s, read=%v): %v", i, o.id, o.read, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	quiesce()
}
