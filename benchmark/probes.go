package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dedisys/internal/chaos"
	"dedisys/internal/constraint"
	"dedisys/internal/gossip"
	"dedisys/internal/group"
	"dedisys/internal/invocation"
	"dedisys/internal/object"
	"dedisys/internal/persistence"
	"dedisys/internal/placement"
	"dedisys/internal/replication"
	"dedisys/internal/repository"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
	"dedisys/internal/tx"
	"dedisys/internal/wiretransport"
)

// probeBatches splits every probe's iterations; the reported figure is the
// median batch, so one preempted batch does not move it.
const probeBatches = 5

// prober runs the direct probes; div scales every iteration count down
// (tests run the probes at a hundredth of their length).
type prober struct {
	out map[string]float64
	div int
}

// time runs fn single-threaded and records time per call under name (its
// suffix picks the unit) and allocations per call under the _allocs twin.
func (p prober) time(name string, iters int, fn func(i int)) {
	unit := float64(time.Nanosecond)
	if strings.HasSuffix(name, "_us") {
		unit = float64(time.Microsecond)
	}
	per := max(iters/p.div/probeBatches, 1)
	for i := 0; i < per/10+1; i++ {
		fn(i)
	}
	var times, allocs []float64
	for b := 0; b < probeBatches; b++ {
		before := readUsage()
		start := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		elapsed := time.Since(start)
		after := readUsage()
		times = append(times, float64(elapsed)/unit/float64(per))
		allocs = append(allocs, float64(after.mallocs-before.mallocs)/float64(per))
	}
	p.out[name] = median(times)
	p.out[name[:strings.LastIndexByte(name, '_')]+"_allocs"] = median(allocs)
}

// wireFrame mirrors wiretransport's unexported frame field for field, and
// by name, so its gob encoding has the size of a real frame.
type wireFrame struct {
	ID      uint64
	Req     bool
	From    transport.NodeID
	Kind    string
	Payload any
	ErrKind uint8
	ErrMsg  string
}

// runProbes calls each layer's public functions directly. batch is a
// repl.batch request recorded from the workload's traced pass (nil when the
// pass shipped none).
func runProbes(batch any, out map[string]float64, div int) error {
	p := prober{out: out, div: div}
	ctx := context.Background()
	if batch == nil {
		batch = object.State{"value": int64(1)}
	}
	const population = 2048
	ids := make([]object.ID, population)
	for i := range ids {
		ids[i] = objectID(i)
	}

	pass := invocation.Func{ID: "pass", Fn: func(inv *invocation.Invocation, next invocation.Next) (any, error) { return next(inv) }}
	chain := invocation.NewChain(func(*invocation.Invocation) (any, error) { return nil, nil }, pass)
	inv := &invocation.Invocation{Node: "n1", Target: ids[0], Class: regClass, Method: "SetValue", Kind: object.Write}
	p.time("invocation.dispatch_ns", 2000000, func(int) { _, _ = chain.Dispatch(inv) })

	repo := repository.New(repository.WithCache())
	if err := repo.RegisterAll([]constraint.Configured{chaos.TradeableConstraint()}); err != nil {
		return err
	}
	p.time("repository.lookup_ns", 2000000, func(int) { repo.LookupAffected(regClass, "SetValue", constraint.HardInvariant) })

	nodes := nodeIDs(8)
	ring, err := placement.New(nodes, placement.Config{Groups: 4, ReplicationFactor: 3})
	if err != nil {
		return err
	}
	p.time("placement.place_ns", 1000000, func(i int) { ring.Place(ids[i%population]) })

	txm := tx.NewManager()
	p.time("tx.begin_lock_commit_ns", 500000, func(i int) {
		t := txm.Begin()
		_ = t.Lock(ids[i%population]) // uncontended: cannot time out
		_ = t.Commit()                // no resources: cannot fail
	})

	store := persistence.NewStore()
	state := object.State{"value": int64(42)}
	p.time("persistence.put_ns", 200000, func(i int) { _ = store.Put("entities", string(ids[i%population]), state) })
	var got object.State
	p.time("persistence.get_ns", 200000, func(i int) { _ = store.Get("entities", string(ids[i%population]), &got) })

	// 256 identities, as on partition-heal: the first pass stores, the rest fold.
	threats := threat.NewStore(persistence.NewStore(), threat.IdenticalOnce)
	p.time("threat.add_ns", 200000, func(i int) {
		_, _, _ = threats.Add(threat.Threat{Constraint: "NonNegative", ContextID: ids[i%256], Degree: constraint.Uncheckable})
	})

	echo := func(_ transport.NodeID, payload any) (any, error) { return "ack", nil }
	net := transport.NewNetwork()
	for _, id := range nodes[:3] {
		if err := net.Join(id); err != nil {
			return err
		}
		if err := net.Handle(id, "probe.echo", echo); err != nil {
			return err
		}
	}
	p.time("transport.send_ns", 1000000, func(int) { _, _ = net.Send(ctx, "n1", "n2", "probe.echo", batch) })

	comm := group.NewComm(net)
	// The straggler is joined inside the timed call so goroutines do not pile
	// up; against a zero-delay echo it ends with the round.
	p.time("group.multicast_threshold_us", 100000, func(int) {
		comm.MulticastThreshold(ctx, "n1", nodes[1:3], "probe.echo", func(transport.NodeID) any { return batch }, 1).Wait()
	})

	if err := wireProbes(ctx, batch, p); err != nil {
		return err
	}
	return gossipProbe(ctx, p)
}

func wireProbes(ctx context.Context, batch any, p prober) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "sock")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	peers := map[transport.NodeID]string{"a": "unix:" + filepath.Join(dir, "a"), "b": "unix:" + filepath.Join(dir, "b")}
	var wires []*wiretransport.Wire
	defer func() {
		for _, w := range wires {
			w.Close()
		}
	}()
	for _, id := range []transport.NodeID{"a", "b"} {
		w, err := wiretransport.New(id, peers)
		if err != nil {
			return err
		}
		if err := w.Start(); err != nil {
			return err
		}
		wires = append(wires, w)
	}
	if err := wires[1].Handle("b", "probe.echo", func(transport.NodeID, any) (any, error) { return "ack", nil }); err != nil {
		return err
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := wires[0].WaitPeers(wctx); err != nil {
		return err
	}
	var sendErr error
	p.time("wiretransport.send_rtt_us", 5000, func(int) {
		if _, err := wires[0].Send(ctx, "a", "b", "probe.echo", batch); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		return fmt.Errorf("wire probe: %w", sendErr)
	}
	// RoundTrip builds a fresh encoder and decoder per call, as the wire does
	// per frame: this is the codec's share of the round trip above.
	p.time("wiretransport.codec_roundtrip_us", 5000, func(int) { _, sendErr = wiretransport.RoundTrip(batch) })
	if sendErr != nil {
		return fmt.Errorf("codec probe: %w", sendErr)
	}
	var frame bytes.Buffer
	if err := gob.NewEncoder(&frame).Encode(&wireFrame{ID: 1, Req: true, From: "a", Kind: "repl.batch", Payload: batch}); err != nil {
		return fmt.Errorf("frame size: %w", err)
	}
	p.out["wiretransport.frame_bytes"] = float64(frame.Len() + 4)
	return nil
}

// gossipProbe times one anti-entropy round of a node whose peers already
// agree with it, on the sim workloads' cluster shape.
func gossipProbe(ctx context.Context, p prober) error {
	c, err := buildCluster(clusterSpec{nodes: 8, groups: 4, rf: 3, protocol: replication.Quorum{}, objects: 512}, nil)
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.populate(); err != nil {
		return err
	}
	var first *gossip.Manager
	for _, n := range c.nodes {
		g, err := gossip.New(c.net, n.ID, n.Repl, gossip.Config{Manual: true, Placement: c.ring})
		if err != nil {
			return err
		}
		if first == nil && len(g.Peers()) > 0 { // a node may replicate no group
			first = g
		}
	}
	if first == nil {
		return fmt.Errorf("gossip probe: no node has co-group peers")
	}
	var roundErr error
	p.time("gossip.round_insync_us", 1000, func(int) {
		exs, err := first.RunRound(ctx)
		if err != nil {
			roundErr = err
		}
		for _, ex := range exs {
			if !ex.InSync {
				roundErr = fmt.Errorf("peer %s not in sync", ex.Peer)
			}
		}
	})
	return roundErr
}
