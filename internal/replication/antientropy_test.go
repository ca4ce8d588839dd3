package replication

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// records is what the node answers a pull from peer whose digest is empty:
// every live replica and tombstone the peer replicates, by ID.
func (env *nodeEnv) records(t *testing.T, peer transport.NodeID) []Record {
	t.Helper()
	reply, err := env.mgr.handlePull(peer, pullMsg{})
	if err != nil {
		t.Fatal(err)
	}
	return reply.(pullReply).Records
}

// merge folds the records into the node's table as a pass merges a peer's
// reply, and flushes what the peer is owed.
func (env *nodeEnv) merge(peer transport.NodeID, recs []Record) (ReconcileReport, error) {
	var report ReconcileReport
	out := repairs{m: env.mgr}
	err := env.mgr.mergeRecords([]transport.NodeID{peer}, recs, MostUpdatesResolver, &report, &out)
	if ferr := out.flush(context.Background()); err == nil {
		err = ferr
	}
	return report, err
}

// mapFingerprint is fingerprint as it was when a vector was a map: the
// non-zero components' keys collected, sorted and hashed with their counts.
func mapFingerprint(salt uint64, id object.ID, vv map[transport.NodeID]int64, deleted bool) uint64 {
	h := uint64(offset64)
	hashBytes := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= prime64
		}
	}
	hashBytes([]byte(id))
	keys := make([]transport.NodeID, 0, len(vv))
	for k := range vv {
		if vv[k] != 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var buf [8]byte
	for _, k := range keys {
		hashBytes([]byte(k))
		binary.LittleEndian.PutUint64(buf[:], uint64(vv[k]))
		hashBytes(buf[:])
	}
	if deleted {
		hashBytes([]byte{0xff})
	}
	return mix64(h ^ salt)
}

// TestFingerprintMatchesMapVector: an entry hashes as it did when its vector
// was a map, for the same logical vector — zero components, nil and empty
// included — so digests of nodes on either side of the change still agree.
func TestFingerprintMatchesMapVector(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		var vv VersionVector
		if r.Intn(8) > 0 {
			vv = VersionVector{}
		}
		model := map[transport.NodeID]int64{}
		for _, n := range []transport.NodeID{"", "n1", "n2", "n3"} {
			if vv != nil && r.Intn(2) == 0 {
				c := int64(r.Intn(3))
				vv = append(vv, Component{Node: n, Count: c})
				model[n] = c
			}
		}
		salt, deleted := r.Uint64(), r.Intn(2) == 0
		if got, want := fingerprint(salt, "o1", vv, deleted), mapFingerprint(salt, "o1", model, deleted); got != want {
			t.Fatalf("vector %v: fingerprint %x, the map's %x", vv, got, want)
		}
	}
}

// TestDigestDetectsDivergence: two tables holding the same entries, filled in
// different orders, send each other equal digests; one missed update, or a
// tombstone in place of a live replica at the same vector, makes them differ.
func TestDigestDetectsDivergence(t *testing.T) {
	const salt = 0xfeed
	digest := func(order []object.ID, tables ...map[object.ID]VersionVector) []uint64 {
		m := &Manager{meta: map[object.ID]*replicaState{}, tombstones: map[object.ID]VersionVector{}}
		for _, id := range order {
			if vv, ok := tables[0][id]; ok {
				m.meta[id] = &replicaState{vv: vv}
			} else {
				m.tombstones[id] = tables[1][id]
			}
		}
		var prints []uint64
		for _, e := range m.digestLocked("n2", salt) {
			prints = append(prints, e.print)
		}
		return prints
	}
	live := map[object.ID]VersionVector{
		"o1": {{Node: "n1", Count: 2}, {Node: "n2", Count: 1}},
		"o2": {{Node: "n2", Count: 5}},
	}
	dead := map[object.ID]VersionVector{"o3": {{Node: "n1", Count: 1}}}
	a := digest([]object.ID{"o1", "o2", "o3"}, live, dead)
	if b := digest([]object.ID{"o3", "o2", "o1"}, live, dead); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("identical tables digest differently: %x vs %x", a, b)
	}
	live["o1"] = VersionVector{{Node: "n1", Count: 3}, {Node: "n2", Count: 1}}
	if b := digest([]object.ID{"o1", "o2", "o3"}, live, dead); fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatal("a divergent vector is not reflected in the digest")
	}
	live["o1"] = VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}
	delete(live, "o1")
	dead["o1"] = VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}
	if b := digest([]object.ID{"o1", "o2", "o3"}, live, dead); fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatal("the tombstone flag is not reflected in the digest")
	}
}

// A zero component must fingerprint like an absent one: version vectors
// treat missing entries as zero, so {n1:2, n2:0} and {n1:2} are the same
// vector and must not be reported as divergent.
func TestFingerprintIgnoresZeroComponents(t *testing.T) {
	const salt = 0xbeef
	withZero := VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 0}}
	without := VersionVector{{Node: "n1", Count: 2}}
	if fingerprint(salt, "o1", withZero, false) != fingerprint(salt, "o1", without, false) {
		t.Fatal("zero component changed the fingerprint")
	}
}

// Divergent entries must fingerprint differently under every salt (up to
// hash collisions — checked over many salts), while identical entries agree.
func TestFingerprintDivergence(t *testing.T) {
	base := VersionVector{{Node: "n1", Count: 4}, {Node: "n3", Count: 2}}
	same := VersionVector{{Node: "n1", Count: 4}, {Node: "n3", Count: 2}}
	ahead := VersionVector{{Node: "n1", Count: 5}, {Node: "n3", Count: 2}}
	for salt := uint64(1); salt <= 64; salt++ {
		if fingerprint(salt, "obj", base, false) != fingerprint(salt, "obj", same, false) {
			t.Fatalf("salt %d: equal entries fingerprint differently", salt)
		}
		if fingerprint(salt, "obj", base, false) == fingerprint(salt, "obj", ahead, false) {
			t.Fatalf("salt %d: divergent entries collide", salt)
		}
	}
}

// Every pass salts its digest afresh, so a 64-bit collision that masks one
// divergence in one pass does not persist into the next: successive passes
// of a node use distinct salts, and under them one entry's fingerprints are
// all distinct.
func TestSaltRotationDecorrelates(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	env := h.node("n1")
	vv := VersionVector{{Node: "n1", Count: 1}}
	salts := make(map[uint64]bool)
	prints := make(map[uint64]bool)
	for pass := 0; pass < 200; pass++ {
		if _, err := env.mgr.ReconcileWith(context.Background(), []transport.NodeID{"n2"}, nil); err != nil {
			t.Fatal(err)
		}
		salt := mix64(env.mgr.salt.Load())
		salts[salt] = true
		prints[fingerprint(salt, "obj", vv, false)] = true
	}
	if len(salts) != 200 || len(prints) != 200 {
		t.Fatalf("200 passes used %d salts and fingerprinted one entry %d ways", len(salts), len(prints))
	}
}

// The object ID is part of the fingerprint: two objects with identical
// vectors must not collide structurally.
func TestFingerprintIncludesObjectID(t *testing.T) {
	vv := VersionVector{{Node: "n1", Count: 1}}
	if fingerprint(1, "a", vv, false) == fingerprint(1, "b", vv, false) {
		t.Fatal("object ID not part of the fingerprint")
	}
}

// TestHealDeliversTombstoneToReplicaThatNeverSawTheObject: n1 creates and
// deletes f1 while n3 is cut off, so n3 never sees the object. One pass after
// the heal, driven by n1 or by n3, leaves n3 holding n1's tombstone, and the
// create that was owed to n3 all along, arriving late, lands as a duplicate
// instead of resurrecting the object. A pull used to carry live records only,
// and the pushes walked the live table only.
func TestHealDeliversTombstoneToReplicaThatNeverSawTheObject(t *testing.T) {
	for _, driver := range []transport.NodeID{"n1", "n3"} {
		t.Run(string(driver)+" drives", func(t *testing.T) {
			h := newHarness(t, 3, PrimaryPerPartition{})
			h.net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
			h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
			n1, n3 := h.node("n1"), h.node("n3")
			var create batchOp
			if _, _, err := n1.mgr.localOp("f1", opCreate, false, &create); err != nil {
				t.Fatal(err)
			}
			txn := n1.txm.Begin()
			if err := n1.mgr.Delete(txn, "f1"); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			h.net.Heal()
			var peers []transport.NodeID
			for _, id := range h.ids {
				if id != driver {
					peers = append(peers, id)
				}
			}
			if _, err := h.node(driver).mgr.ReconcileWith(context.Background(), peers, nil); err != nil {
				t.Fatal(err)
			}
			n1.mgr.mu.Lock()
			want := n1.mgr.tombstones["f1"]
			n1.mgr.mu.Unlock()
			if _, _, key := n3.held("f1"); key != "3 n1:2" || n3.mgr.TombstoneCount() != 1 {
				t.Fatalf("n3 holds %q (%d tombstones), want n1's tombstone %v", key, n3.mgr.TombstoneCount(), want)
			}
			res, err := n3.mgr.applyStored([]batchOp{create}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res[0] != opDuplicate || n3.reg.Has("f1") {
				t.Fatalf("the late create landed as %d on n3 (live: %v), want a duplicate", res[0], n3.reg.Has("f1"))
			}
		})
	}
}
