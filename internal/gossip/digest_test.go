package gossip

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dedisys/internal/object"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
)

func entry(vv replication.VersionVector, deleted bool) replication.DigestEntry {
	return replication.DigestEntry{VV: vv, Deleted: deleted}
}

// mapFingerprint is fingerprint as it was when a vector was a map: the
// non-zero components' keys collected, sorted and hashed with their counts.
func mapFingerprint(salt uint64, id object.ID, vv map[transport.NodeID]int64, deleted bool) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
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
		var vv replication.VersionVector
		if r.Intn(8) > 0 {
			vv = replication.VersionVector{}
		}
		model := map[transport.NodeID]int64{}
		for _, n := range []transport.NodeID{"", "n1", "n2", "n3"} {
			if vv != nil && r.Intn(2) == 0 {
				c := int64(r.Intn(3))
				vv = append(vv, replication.Component{Node: n, Count: c})
				model[n] = c
			}
		}
		salt, deleted := r.Uint64(), r.Intn(2) == 0
		if got, want := fingerprint(salt, "o1", entry(vv, deleted)), mapFingerprint(salt, "o1", model, deleted); got != want {
			t.Fatalf("vector %v: fingerprint %x, the map's %x", vv, got, want)
		}
	}
}

// Two identical digests must summarize identically regardless of map
// iteration order; any single-entry difference must change the fold.
func TestSummaryDetectsDivergence(t *testing.T) {
	const salt = 0xfeed
	a := map[object.ID]replication.DigestEntry{
		"o1": entry(replication.VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}, false),
		"o2": entry(replication.VersionVector{{Node: "n2", Count: 5}}, false),
		"o3": entry(replication.VersionVector{{Node: "n1", Count: 1}}, true),
	}
	b := map[object.ID]replication.DigestEntry{
		"o3": entry(replication.VersionVector{{Node: "n1", Count: 1}}, true),
		"o2": entry(replication.VersionVector{{Node: "n2", Count: 5}}, false),
		"o1": entry(replication.VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}, false),
	}
	if sa, sb := summarize(salt, a), summarize(salt, b); sa != sb {
		t.Fatalf("identical digests summarize differently: %+v vs %+v", sa, sb)
	}

	// One missed update on one object.
	b["o1"] = entry(replication.VersionVector{{Node: "n1", Count: 3}, {Node: "n2", Count: 1}}, false)
	if sa, sb := summarize(salt, a), summarize(salt, b); sa == sb {
		t.Fatal("divergent vector not reflected in summary")
	}
	// Deletion status flips the fingerprint even with an equal vector.
	b["o1"] = entry(replication.VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}, true)
	if sa, sb := summarize(salt, a), summarize(salt, b); sa == sb {
		t.Fatal("tombstone flag not reflected in summary")
	}
}

// A zero component must fingerprint like an absent one: version vectors
// treat missing entries as zero, so {n1:2, n2:0} and {n1:2} are the same
// vector and must not be reported as divergent.
func TestFingerprintIgnoresZeroComponents(t *testing.T) {
	const salt = 0xbeef
	withZero := entry(replication.VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 0}}, false)
	without := entry(replication.VersionVector{{Node: "n1", Count: 2}}, false)
	if fingerprint(salt, "o1", withZero) != fingerprint(salt, "o1", without) {
		t.Fatal("zero component changed the fingerprint")
	}
}

// Divergent entries must fingerprint differently under every salt (up to
// hash collisions — checked over many salts), while identical entries agree.
func TestFingerprintDivergence(t *testing.T) {
	base := entry(replication.VersionVector{{Node: "n1", Count: 4}, {Node: "n3", Count: 2}}, false)
	same := entry(replication.VersionVector{{Node: "n1", Count: 4}, {Node: "n3", Count: 2}}, false)
	ahead := entry(replication.VersionVector{{Node: "n1", Count: 5}, {Node: "n3", Count: 2}}, false)
	for salt := uint64(1); salt <= 64; salt++ {
		if fingerprint(salt, "obj", base) != fingerprint(salt, "obj", same) {
			t.Fatalf("salt %d: equal entries fingerprint differently", salt)
		}
		if fingerprint(salt, "obj", base) == fingerprint(salt, "obj", ahead) {
			t.Fatalf("salt %d: divergent entries collide", salt)
		}
	}
}

// The bloom filter must stay under a usable false-positive rate at typical
// co-group digest sizes (tens of entries over 512 bits), and must never
// report a false negative. A false positive only masks one divergent entry
// for one round — the next exchange re-salts every fingerprint — but the
// rate still bounds how much delta traffic is deferred.
func TestFilterFalsePositiveRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const members = 50
	var f Filter
	in := make(map[uint64]struct{}, members)
	for len(in) < members {
		h := rng.Uint64()
		in[h] = struct{}{}
		f.Add(h)
	}
	for h := range in {
		if !f.Contains(h) {
			t.Fatalf("false negative for member %x", h)
		}
	}
	const probes = 20000
	fp := 0
	for i := 0; i < probes; i++ {
		h := rng.Uint64()
		if _, member := in[h]; member {
			continue
		}
		if f.Contains(h) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Fatalf("false-positive rate %.3f > 0.05 at %d members", rate, members)
	}
}

// Salting must decorrelate collisions: a fingerprint pair colliding in the
// filter under one salt must separate under fresh salts, so no divergence
// stays masked across rounds.
func TestSaltRotationDecorrelates(t *testing.T) {
	a := entry(replication.VersionVector{{Node: "n1", Count: 1}}, false)
	b := entry(replication.VersionVector{{Node: "n1", Count: 2}}, false)
	masked := 0
	const rounds = 200
	for salt := uint64(1); salt <= rounds; salt++ {
		var f Filter
		// A filter loaded with 30 unrelated entries plus a's fingerprint.
		for i := 0; i < 30; i++ {
			f.Add(fingerprint(salt, object.ID(fmt.Sprintf("x%d", i)), entry(replication.VersionVector{{Node: "n9", Count: int64(i)}}, false)))
		}
		f.Add(fingerprint(salt, "obj", a))
		if f.Contains(fingerprint(salt, "obj", b)) {
			masked++
		}
	}
	// With independent salts the masking probability is the per-round FP
	// rate (~1-2% at this load); consecutive total masking is the failure
	// mode the rotation exists to prevent.
	if masked == rounds {
		t.Fatal("divergent entry masked under every salt: salting is not decorrelating")
	}
	if masked > rounds/4 {
		t.Fatalf("divergent entry masked in %d/%d rounds", masked, rounds)
	}
}

// The object ID is part of the fingerprint: two objects with identical
// vectors must not collide structurally.
func TestFingerprintIncludesObjectID(t *testing.T) {
	e := entry(replication.VersionVector{{Node: "n1", Count: 1}}, false)
	if fingerprint(1, "a", e) == fingerprint(1, "b", e) {
		t.Fatal("object ID not part of the fingerprint")
	}
}
