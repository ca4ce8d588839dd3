package replication

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// The replica rule (decide), exhausted over small cases. Every causally valid
// history of up to four operations on one object — create, apply, delete and
// re-create, from up to two coordinators, connected or split — is delivered to
// a replica in every order with one duplicate; then replicas holding what the
// deliveries left part-way are reconciled in one round.

// enumObject is the object every history writes.
const enumObject object.ID = "o"

// enumReplicas are the object's replicas: the coordinators n1 and n2, which
// ship the history, and the receivers n3–n5, which the orders reach.
var enumReplicas = []transport.NodeID{"n1", "n2", "n3", "n4", "n5"}

// event is one coordinator operation of a history; the zero event partitions
// the coordinators from there on.
type event struct {
	coord transport.NodeID
	kind  opKind
}

// replay runs the events on the two coordinators of h, from scratch, and returns the op each
// shipped, or false when one was not possible where it ran: a create needs a
// coordinator without a live replica, an apply and a delete one with.
func replay(t *testing.T, h *harness, events []event) ([]batchOp, bool) {
	h.net.Heal()
	for _, env := range h.nodes {
		env.forget(enumObject)
	}
	var ops []batchOp
	for _, ev := range events {
		if ev.coord == "" {
			h.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
			continue
		}
		env := h.node(ev.coord)
		if env.reg.Has(enumObject) == (ev.kind == opCreate) {
			return nil, false
		}
		sold := int64(len(ops) + 1) // every op ships a state of its own
		switch ev.kind {
		case opCreate:
			txn := env.txm.Begin()
			if err := env.mgr.Create(txn, object.New("Flight", enumObject, object.State{"sold": sold}), Info{Home: ev.coord, Replicas: enumReplicas}); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		case opApply:
			h.write(t, ev.coord, enumObject, "sold", sold)
		case opDelete:
			txn := env.txm.Begin()
			if err := env.mgr.Delete(txn, enumObject); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		op := batchOp{Kind: opDelete, ID: enumObject}
		if ev.kind == opDelete {
			env.mgr.mu.Lock()
			op.VV = env.mgr.tombstones[enumObject]
			env.mgr.mu.Unlock()
		} else if _, err := env.mgr.localOp(enumObject, ev.kind, false, &op); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	return ops, true
}

// histories returns the ops of every distinct causally valid history of one
// to max operations.
func histories(t *testing.T, max int) [][]batchOp {
	h := newHarness(t, 2, PrimaryPerPartition{})
	var out [][]batchOp
	seen := make(map[string]bool)
	var walk func(events []event, n int, split bool)
	walk = func(events []event, n int, split bool) {
		for _, coord := range []transport.NodeID{"n1", "n2"} {
			for _, kind := range []opKind{opCreate, opApply, opDelete} {
				next := append(events[:len(events):len(events)], event{coord, kind})
				ops, ok := replay(t, h, next)
				if !ok {
					continue
				}
				if key := fmt.Sprint(ops); !seen[key] {
					seen[key] = true
					out = append(out, ops)
				}
				if n+1 < max {
					walk(next, n+1, split)
				}
			}
		}
		if !split && n < max {
			walk(append(events[:len(events):len(events)], event{}), n, true)
		}
	}
	walk(nil, 0, false)
	return out
}

// orders returns every distinct sequence of the indices 0…k-1 with one of
// them delivered twice.
func orders(k int) [][]int {
	var out [][]int
	for dup := 0; dup < k; dup++ {
		seq := make([]int, 0, k+1)
		for i := 0; i < k; i++ {
			seq = append(seq, i)
			if i == dup {
				seq = append(seq, i)
			}
		}
		// Lexicographic next permutation visits each distinct sequence once.
		for {
			out = append(out, append([]int(nil), seq...))
			i := len(seq) - 2
			for i >= 0 && seq[i] >= seq[i+1] {
				i--
			}
			if i < 0 {
				break
			}
			j := len(seq) - 1
			for seq[j] <= seq[i] {
				j--
			}
			seq[i], seq[j] = seq[j], seq[i]
			for l, r := i+1, len(seq)-1; l < r; l, r = l+1, r-1 {
				seq[l], seq[r] = seq[r], seq[l]
			}
		}
	}
	return out
}

// forget drops everything the replica holds of the object.
func (env *nodeEnv) forget(id object.ID) {
	env.mgr.mu.Lock()
	delete(env.mgr.meta, id)
	delete(env.mgr.tombstones, id)
	env.mgr.mu.Unlock()
	_ = env.reg.Remove(id)
	env.store.Delete(tableReplicaMeta, string(id))
}

// held reads what the replica holds of the object — a live replica or a
// tombstone, at vv — and renders it with the state and version of a live one.
func (env *nodeEnv) held(id object.ID) (have opKind, vv VersionVector, key string) {
	env.mgr.mu.Lock()
	if rs, ok := env.mgr.meta[id]; ok {
		have, vv = opApply, rs.vv
	} else if tomb, ok := env.mgr.tombstones[id]; ok {
		have, vv = opDelete, tomb
	}
	env.mgr.mu.Unlock()
	b := []byte{'0' + byte(have)}
	for _, c := range vv {
		b = append(append(append(b, ' '), c.Node...), ':')
		b = strconv.AppendInt(b, c.Count, 10)
	}
	if have == opApply {
		if e, err := env.reg.Get(id); err == nil {
			b = strconv.AppendInt(append(b, " v"...), e.Version(), 10)
			b = strconv.AppendInt(append(b, " sold="...), e.GetInt("sold"), 10)
		}
	}
	return have, vv, string(b)
}

// stored renders what the replica holds of the object with its stored record.
func (env *nodeEnv) stored(id object.ID) string {
	var raw json.RawMessage
	_ = env.store.Get(tableReplicaMeta, string(id), &raw)
	_, _, key := env.held(id)
	return key + " store=" + string(raw)
}

// covers reports whether a is equal to or newer than b.
func covers(a, b VersionVector) bool {
	cmp, ok := b.Compare(a)
	return ok && cmp <= 0
}

// delivery is what one replica made of a sequence of a history's ops: which
// of them landed, and every tombstone it held on the way.
type delivery struct {
	landed uint
	tombs  []VersionVector
}

// deliverSeq hands the ops of seq to the replica one by one and checks each
// step: an op that landed is installed or dominated, a live replica holds the
// state shipped with its vector (or with one its vector extends only by
// deletions), and no tombstone the replica held covers it.
func (env *nodeEnv) deliverSeq(t *testing.T, ops []batchOp, seq []int, d *delivery, step func(prefix []int, key string)) {
	t.Helper()
	var buf [1]opResult
	for j, i := range seq {
		res, err := env.mgr.applyOps(ops[i:i+1], buf[:0], nil)
		if err != nil {
			t.Fatalf("%v order %v: %v", ops, seq, err)
		}
		have, vv, key := env.held(enumObject)
		if res[0].landed() {
			d.landed |= 1 << i
			if !covers(vv, ops[i].VV) {
				t.Fatalf("%v order %v: op %d landed (%d) but the replica holds %s", ops, seq[:j+1], i, res[0], key)
			}
		}
		switch have {
		case opDelete:
			d.tombs = append(d.tombs, vv)
		case opApply:
			for _, tomb := range d.tombs {
				if covers(tomb, vv) {
					t.Fatalf("%v order %v: live %s under the tombstone %v it held", ops, seq[:j+1], key, tomb)
				}
			}
			// The vector may extend the state's own by deletions, of another
			// incarnation, that the replica took in.
			var deaths VersionVector
			for _, op := range ops {
				if op.Kind == opDelete && covers(vv, op.VV) {
					deaths = deaths.Merged(op.VV)
				}
			}
			shipped := false
			e, _ := env.reg.Get(enumObject)
			for _, op := range ops {
				if op.Kind != opDelete && covers(vv, op.VV) && covers(op.VV.Merged(deaths), vv) {
					shipped = shipped || op.Version == e.Version() && op.State["sold"] == e.GetInt("sold")
				}
			}
			if !shipped {
				t.Fatalf("%v order %v: live %s is no state shipped with its vector", ops, seq[:j+1], key)
			}
		}
		if step != nil {
			step(seq[:j+1], key)
		}
	}
}

// TestReplicaRuleExhaustive checks, over every small history and order:
//   - strong eventual consistency: a replica's state, vector, tombstone and
//     stored record depend only on which of the ops landed, not on the order
//     or a duplicate (an op that did not land is still owed by its sender);
//   - an op that landed is installed or dominated;
//   - a replica holds live only a state that was shipped with its vector, or
//     with one its vector extends only by deletions of another incarnation,
//     and none that a tombstone it held covers;
//   - after one reconciliation round — each of three replicas, holding any
//     states the deliveries passed through, reconciles with the other two in
//     turn — every replica holds the same live state, or none; it dominates
//     every op that had landed anywhere, is no live state a held tombstone
//     covers and, when the round resolved no conflict, is what delivering the
//     ops that had landed to one replica leaves.
func TestReplicaRuleExhaustive(t *testing.T) {
	start := time.Now()
	max := 4
	if raceEnabled {
		max = 3 // the detector needs the interleavings, not every case
	}
	hs := histories(t, max)
	seqs := make([][][]int, max+1)
	for k := 1; k <= max; k++ {
		seqs[k] = orders(k)
	}
	var deliveries, rounds atomic.Int64
	t.Run("workers", func(t *testing.T) {
		// Two workers, each with three receivers of its own, split the
		// histories.
		for w := range 2 {
			t.Run(strconv.Itoa(w), func(t *testing.T) {
				t.Parallel()
				rh := newHarness(t, 5, PrimaryPerPartition{})
				rh.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3", "n4", "n5"})
				receivers := []*nodeEnv{rh.node("n3"), rh.node("n4"), rh.node("n5")}
				for i := w; i < len(hs) && !t.Failed(); i += 2 {
					d, r := checkHistory(t, hs[i], seqs[len(hs[i])], receivers)
					deliveries.Add(d)
					rounds.Add(r)
				}
			})
		}
	})
	t.Logf("%d histories, %d deliveries, %d reconciliation rounds in %v", len(hs), deliveries.Load(), rounds.Load(), time.Since(start).Round(time.Millisecond))
}

// checkHistory delivers the history's ops to the first receiver in every
// order, then reconciles the receivers from every three states the
// deliveries passed through, and returns how many of each it ran.
func checkHistory(t *testing.T, ops []batchOp, seqs [][]int, receivers []*nodeEnv) (deliveries, rounds int64) {
	t.Helper()
	r := receivers[0]
	byLanded := make(map[uint]string)
	r.forget(enumObject)
	_, _, none := r.held(enumObject)
	passed := map[string][]int{none: nil} // every state a delivery passed through, by a prefix that reaches it
	for _, seq := range seqs {
		deliveries++
		r.forget(enumObject)
		var d delivery
		r.deliverSeq(t, ops, seq, &d, func(prefix []int, key string) {
			if _, ok := passed[key]; !ok {
				passed[key] = append([]int(nil), prefix...)
			}
		})
		key := r.stored(enumObject)
		if prev, ok := byLanded[d.landed]; ok && prev != key {
			t.Fatalf("%v: order %v leaves %s, another order landing the same ops %s", ops, seq, key, prev)
		}
		byLanded[d.landed] = key
	}
	keys := make([]string, 0, len(passed))
	for key := range passed {
		keys = append(keys, key)
	}
	// Descending: tombstones first, then live states, then none. The first
	// receiver drives the round first, so a tombstone meets the live records
	// before a push can reach it.
	slices.Sort(keys)
	slices.Reverse(keys)
	for a := range keys {
		for b := a; b < len(keys); b++ {
			for c := b; c < len(keys); c++ {
				rounds++
				prefixes := [][]int{passed[keys[a]], passed[keys[b]], passed[keys[c]]}
				got, landed, conflicts := mergeRound(t, ops, receivers, prefixes)
				if want, ok := byLanded[landed]; ok && conflicts == 0 && got != visible(want) {
					t.Fatalf("%v from %v: the round ends on %s, delivering what had landed on %s", ops, prefixes, got, want)
				}
			}
		}
	}
	return deliveries, rounds
}

// visible is the part of a stored key a reconciliation round agrees on: the
// live replica, or none.
func visible(key string) string {
	if key[0] != '0'+byte(opApply) {
		return "none"
	}
	return key
}

// mergeRound loads each receiver with its prefix of the history's ops, runs
// one reconciliation round and checks that the receivers agree on a state
// that dominates every op that had landed and resurrects no tombstone. It
// returns that state, the ops that had landed and the conflicts resolved.
func mergeRound(t *testing.T, ops []batchOp, receivers []*nodeEnv, prefixes [][]int) (string, uint, int) {
	t.Helper()
	var all delivery
	for k, env := range receivers {
		env.forget(enumObject)
		var d delivery
		env.deliverSeq(t, ops, prefixes[k], &d, nil)
		all.landed |= d.landed
		all.tombs = append(all.tombs, d.tombs...)
	}
	conflicts := 0
	for k, env := range receivers {
		var peers []transport.NodeID
		for _, p := range receivers {
			if p != env {
				peers = append(peers, p.id)
			}
		}
		report, err := env.mgr.ReconcileWith(context.Background(), peers, nil)
		if err != nil {
			t.Fatalf("%v from %v: pass %d: %v", ops, prefixes, k, err)
		}
		conflicts += report.Conflicts
	}
	key := visible(receivers[0].stored(enumObject))
	for _, env := range receivers[1:] {
		if other := visible(env.stored(enumObject)); other != key {
			t.Fatalf("%v from %v: after the round %s holds %s, %s holds %s", ops, prefixes, receivers[0].id, key, env.id, other)
		}
	}
	// What had landed is under the live vector, or under a tombstone.
	var ends []VersionVector
	for _, env := range receivers {
		if have, vv, _ := env.held(enumObject); have == opApply || have == opDelete && key == "none" {
			ends = append(ends, vv)
		}
	}
	for i, op := range ops {
		if all.landed&(1<<i) == 0 {
			continue
		}
		dominated := false
		for _, end := range ends {
			dominated = dominated || covers(end, op.VV)
		}
		if !dominated {
			t.Fatalf("%v from %v: op %d had landed, the round ends on %s", ops, prefixes, i, key)
		}
	}
	if key != "none" {
		for _, tomb := range all.tombs {
			if covers(tomb, ends[0]) {
				t.Fatalf("%v from %v: the round ends live on %s under the held tombstone %v", ops, prefixes, key, tomb)
			}
		}
	}
	return key, all.landed, conflicts
}
