package node_test

// A node ships every repl.batch to a peer through one long-lived sender per
// peer: ordered, batched while a batch is in flight, and bounded.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/reconcile"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
)

// metric reads a counter or a gauge of the cluster's registry; a name
// nothing registered fails the test instead of reading 0.
func metric(t *testing.T, c *node.Cluster, name string) int64 {
	t.Helper()
	snap := c.Obs.Snapshot()
	if v, ok := snap.Counters[name]; ok {
		return v
	}
	v, ok := snap.Gauges[name]
	if !ok {
		t.Fatalf("no counter or gauge %q registered", name)
	}
	return v
}

// waitGoroutines waits up to 5 s for the goroutine count to fall to at most
// want.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 5 s after %s, want at most %d:\n%s", runtime.NumGoroutine(), what, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDelayedCreateIsNotOvertaken: a quorum commit of a create returns once
// n2 acked, while its batch to n3 is still in flight. The two writes that
// follow from the same coordinator wait behind it instead of overtaking it,
// so n3 never skips an apply whose create it has not seen, and holds the last
// state without reconciliation.
func TestDelayedCreateIsNotOvertaken(t *testing.T) {
	c := newRegCluster(t, 3, func(o *node.Options) { o.Protocol = replication.Quorum{} })
	n1, n3 := c.Node(0), c.Node(2)
	var delayed atomic.Bool
	c.Net.SetLatency(func(_, to transport.NodeID, kind string) time.Duration {
		if to == "n3" && kind == "repl.batch" && delayed.CompareAndSwap(false, true) {
			return 50 * time.Millisecond
		}
		return 0
	})
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	setValue(t, n1, "o1", 1)
	setValue(t, n1, "o1", 2)
	n1.Repl.WaitPropagation()
	if !delayed.Load() {
		t.Fatal("no repl.batch to n3 was delayed")
	}
	if got := metric(t, c, "n3.replication.batch.skipped"); got != 0 {
		t.Fatalf("n3 skipped %d ops: a write overtook the create", got)
	}
	expectValue(t, n3, "o1", 2)
	expectConverged(t, "after the writes drained", "o1", c.Nodes...)
}

// TestSlowReplicaHoldsBoundedGoroutines: under a quorum one replica ten times
// slower than the other never holds up a commit, and the sends it has not
// answered do not pile up as goroutines on the coordinator: with 16 writers,
// the process holds at most the writers, the peers' senders and a constant
// beyond its baseline. Node.Stop returns it to the baseline.
func TestSlowReplicaHoldsBoundedGoroutines(t *testing.T) {
	const (
		writers = 16
		writes  = 25
		peers   = 2
		hop     = time.Millisecond
		// lanes a peer's stragglers may hold beyond its one sender, the
		// sampler, and the runtime's own.
		slack = 2*7 + 1 + 4
	)
	baseline := runtime.NumGoroutine()
	c := newRegCluster(t, 3, func(o *node.Options) { o.Protocol = replication.Quorum{} })
	n1 := c.Node(0)
	for w := 0; w < writers; w++ {
		if err := n1.Create("Reg", object.ID(fmt.Sprintf("o%d", w)), object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
			t.Fatal(err)
		}
	}
	n1.Repl.WaitPropagation()
	c.Net.SetLatency(func(_, to transport.NodeID, _ string) time.Duration {
		if to == "n3" {
			return 10 * hop
		}
		return hop
	})
	defer c.Net.SetLatency(nil)

	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id object.ID) {
			defer wg.Done()
			for i := 1; i <= writes; i++ {
				if _, err := n1.Invoke(id, "SetValue", int64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(object.ID(fmt.Sprintf("o%d", w)))
	}
	wg.Wait()
	close(stop)
	<-sampled
	limit := int64(baseline + peers + writers + slack)
	t.Logf("peak %d goroutines, baseline %d, limit %d", peak.Load(), baseline, limit)
	if peak.Load() > limit {
		t.Fatalf("peak %d goroutines, want at most %d (baseline %d + %d peers + %d writers + %d)", peak.Load(), limit, baseline, peers, writers, slack)
	}
	n1.Repl.WaitPropagation()
	for w := 0; w < writers; w++ {
		expectConverged(t, "after the writers", object.ID(fmt.Sprintf("o%d", w)), c.Nodes...)
	}
	c.Stop()
	waitGoroutines(t, baseline, "Stop")
}

// TestStalledPeerQueueIsBounded: a peer whose batches never return fills its
// queue to the bound and no further; what finds the queue full fails as a
// send fails and is counted, and the commits go on at their quorum. The
// backlog gauge shows the ops queued or in flight, and 0 once the peer
// answers again and the queue drains. One reconciliation pass then repairs
// what the peer missed.
func TestStalledPeerQueueIsBounded(t *testing.T) {
	c := newRegCluster(t, 3, func(o *node.Options) { o.Protocol = replication.Quorum{} })
	n1 := c.Node(0)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	n1.Repl.WaitPropagation()
	release := make(chan struct{})
	c.Net.SetLatency(func(_, to transport.NodeID, kind string) time.Duration {
		if to == "n3" && kind == "repl.batch" {
			<-release
		}
		return 0
	})
	defer c.Net.SetLatency(nil)

	const backlog, errs = "n1.replication.backlog", "n1.replication.propagation_errors"
	errsBefore := metric(t, c, errs)
	// Write until a write finds the queue full: every write is one op for n3,
	// queued, in flight, or failed.
	v := int64(0)
	for metric(t, c, errs) == errsBefore {
		if v++; v > 1<<16 {
			t.Fatalf("%d writes to a stalled peer and none failed: the queue is unbounded (backlog %d)", v-1, metric(t, c, backlog))
		}
		setValue(t, n1, "o1", v)
	}
	full := metric(t, c, backlog)
	if full+1 != v {
		t.Fatalf("backlog %d after %d writes, the last failed: want %d", full, v, v-1)
	}
	for k := 0; k < 50; k++ {
		v++
		setValue(t, n1, "o1", v)
	}
	if got := metric(t, c, backlog); got != full {
		t.Fatalf("backlog = %d after 50 more writes, want it to stay at its bound %d", got, full)
	}
	if got := metric(t, c, errs) - errsBefore; got != 51 {
		t.Fatalf("%d writes past the bound counted as failed sends, want 51", got)
	}

	close(release)
	n1.Repl.WaitPropagation()
	if got := metric(t, c, backlog); got != 0 {
		t.Fatalf("backlog = %d once the peer answered and its queue drained, want 0", got)
	}
	if _, err := reconcile.Run(context.Background(), n1, []transport.NodeID{"n2", "n3"}, reconcile.Handlers{}); err != nil {
		t.Fatal(err)
	}
	expectConverged(t, "after one reconciliation pass", "o1", c.Nodes...)
	expectValue(t, c.Node(2), "o1", v)
}

// queueBehindOne has n1 write each of ids to its one peer, n2, in a commit of
// its own, and holds the first batch to n2 in flight until the others queued
// behind it: they leave as one coalesced repl.batch when it returns. It
// returns what the writes sent.
func queueBehindOne(t *testing.T, c *node.Cluster, ids []object.ID) sends {
	t.Helper()
	n1 := c.Node(0)
	release := make(chan struct{})
	var held atomic.Bool
	c.Net.SetLatency(func(_, to transport.NodeID, kind string) time.Duration {
		if kind == "repl.batch" && held.CompareAndSwap(false, true) {
			<-release
		}
		return 0
	})
	defer c.Net.SetLatency(nil)
	tally := tapSends(t, c.Net)
	var wg sync.WaitGroup
	for k, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n1.Invoke(id, "SetValue", int64(k+1)); err != nil {
				t.Error(err)
			}
		}()
		// The first batch is in flight, the others queue behind it.
		deadline := time.Now().Add(5 * time.Second)
		for metric(t, c, "n1.replication.backlog") != int64(k+1) {
			if time.Now().After(deadline) {
				t.Fatalf("backlog = %d, want %d", metric(t, c, "n1.replication.backlog"), k+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()
	return tally.take()
}

// newQueueCluster builds two nodes with the objects ids replicated on both and
// created by n1.
func newQueueCluster(t *testing.T, ids []object.ID) *node.Cluster {
	t.Helper()
	c := newRegCluster(t, 2)
	for _, id := range ids {
		if err := c.Node(0).Create("Reg", id, object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestQueuedBatchesLeaveAsOne: while a batch to n2 is in flight, the batches
// of two more commits queue behind it and leave as one repl.batch when it
// returns; each commit reads its own part of the one ack, and both replicas
// end with every write.
func TestQueuedBatchesLeaveAsOne(t *testing.T) {
	ids := []object.ID{"o1", "o2", "o3"}
	c := newQueueCluster(t, ids)
	n2 := c.Node(1)
	if got := queueBehindOne(t, c, ids); got["n2"]["repl.batch"] != 2 {
		t.Fatalf("three writes sent %v, want two repl.batch to n2, the second carrying two commits", got)
	}
	if got := metric(t, c, "n2.replication.batch.skipped"); got != 0 {
		t.Fatalf("n2 skipped %d ops", got)
	}
	for k, id := range ids {
		expectValue(t, n2, id, int64(k+1))
		expectConverged(t, "after the writes", id, c.Nodes...)
	}
}

// TestCoalescedBatchIsOneStoreWrite: the receiver stores what a coalesced
// repl.batch changed in one write, whatever the number of commits in it —
// here one batch alone and three commits coalesced make two writes at n2,
// of one record per commit.
func TestCoalescedBatchIsOneStoreWrite(t *testing.T) {
	ids := []object.ID{"o1", "o2", "o3", "o4"}
	c := newQueueCluster(t, ids)
	writes, records := metric(t, c, "n2.persistence.writes"), metric(t, c, "n2.persistence.records")
	if got := queueBehindOne(t, c, ids); got["n2"]["repl.batch"] != 2 {
		t.Fatalf("four writes sent %v, want two repl.batch to n2, the second carrying three commits", got)
	}
	if got := metric(t, c, "n2.persistence.writes") - writes; got != 2 {
		t.Errorf("n2 made %d store writes for two repl.batch, want 2", got)
	}
	if got := metric(t, c, "n2.persistence.records") - records; got != int64(len(ids)) {
		t.Errorf("n2 stored %d records, want %d", got, len(ids))
	}
	for k, id := range ids {
		expectValue(t, c.Node(1), id, int64(k+1))
		expectConverged(t, "after the writes", id, c.Nodes...)
	}
}

// TestForwardedWriteWaitsBehindItsCreate: n1 coordinates a write that n2
// forwarded while n2's create of the object is still in flight from n1. The write's batch must not ride the invoke reply, which would
// reach n2 before the create: n2 stays in the commit's round and its batch
// queues behind the create. The test discards the reply, so n2 holds the
// write only if the round carried it.
func TestForwardedWriteWaitsBehindItsCreate(t *testing.T) {
	c := newRegCluster(t, 3, func(o *node.Options) { o.Protocol = replication.Quorum{} })
	n1, n2 := c.Node(0), c.Node(1)
	var delayed atomic.Bool
	c.Net.SetLatency(func(_, to transport.NodeID, kind string) time.Duration {
		if to == "n2" && kind == "repl.batch" && delayed.CompareAndSwap(false, true) {
			return 50 * time.Millisecond
		}
		return 0
	})
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.HandleForwarded("n2", "o1", "SetValue", int64(1)); err != nil {
		t.Fatal(err)
	}
	n1.Repl.WaitPropagation()
	if !delayed.Load() {
		t.Fatal("no repl.batch to n2 was delayed")
	}
	if got := metric(t, c, "n2.replication.batch.skipped"); got != 0 {
		t.Fatalf("n2 skipped %d ops", got)
	}
	expectValue(t, n2, "o1", 1)
	expectConverged(t, "after the forwarded write", "o1", c.Nodes...)
}
