package gossip

import (
	"encoding/binary"

	"dedisys/internal/object"
	"dedisys/internal/replication"
)

// The digest machinery turns a replica table summary into three nested
// levels of compactness:
//
//  1. a Summary — one 64-bit order-independent fold plus a count — that two
//     in-sync nodes match in O(1) bytes;
//  2. a Filter — a fixed 512-bit bloom filter over per-object fingerprints —
//     that lets each side compute which of its entries the other side
//     provably does not hold in the advertised version;
//  3. the per-object DigestEntry map itself, shipped only for entries that
//     fall outside the other side's filter.
//
// Fingerprints are salted per exchange: a bloom false positive can mask one
// divergent entry for one round, but the next exchange re-salts every
// fingerprint, so no divergence is masked twice in a row by the same
// collision.

// filterBits is the bloom filter width in bits.
const filterBits = 512

// filterHashes is the number of probe positions per fingerprint.
const filterHashes = 4

// Filter is a fixed-size bloom filter over digest fingerprints.
type Filter struct {
	Bits [filterBits / 64]uint64
}

// Add inserts a fingerprint.
func (f *Filter) Add(h uint64) {
	h2 := mix64(h)
	for i := uint64(0); i < filterHashes; i++ {
		bit := (h + i*h2) % filterBits
		f.Bits[bit/64] |= 1 << (bit % 64)
	}
}

// Contains reports whether the fingerprint may have been added (bloom
// semantics: false means definitely absent).
func (f Filter) Contains(h uint64) bool {
	h2 := mix64(h)
	for i := uint64(0); i < filterHashes; i++ {
		bit := (h + i*h2) % filterBits
		if f.Bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Summary is the O(1) first-pass digest: an XOR fold of all salted entry
// fingerprints plus the entry count. Matching summaries prove (up to a
// 64-bit collision, re-salted every round) that two tables agree.
type Summary struct {
	Count int
	Fold  uint64
}

// summarize folds a digest into its salted summary.
func summarize(salt uint64, digest map[object.ID]replication.DigestEntry) Summary {
	s := Summary{Count: len(digest)}
	for id, e := range digest {
		s.Fold ^= fingerprint(salt, id, e)
	}
	return s
}

// fingerprint hashes one digest entry — object ID, sorted version vector and
// tombstone flag — under the exchange salt. Identical entries produce
// identical fingerprints on both sides; any difference in the vector or the
// deletion status changes the fingerprint.
func fingerprint(salt uint64, id object.ID, e replication.DigestEntry) uint64 {
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
	var buf [8]byte
	for _, c := range e.VV { // in node order; a zero component is an absent one
		if c.Count == 0 {
			continue
		}
		hashBytes([]byte(c.Node))
		binary.LittleEndian.PutUint64(buf[:], uint64(c.Count))
		hashBytes(buf[:])
	}
	if e.Deleted {
		hashBytes([]byte{0xff})
	}
	return mix64(h ^ salt)
}

// mix64 is the fmix64 finalizer (MurmurHash3): full avalanche so bloom probe
// positions and salted folds are well distributed.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
