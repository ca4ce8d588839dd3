package replication

import (
	"cmp"
	"encoding/binary"
	"slices"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// This file is the digest of the one repair exchange (ReconcileWith, which
// heal reconciliation and the gossip layer both run): a replica table, as far
// as a peer replicates it, summed up as one salted 64-bit fingerprint per live
// replica and per tombstone, sorted. Two nodes whose tables agree send each
// other equal lists, so an in-sync peer answers a pass with an empty reply;
// otherwise the walk of the two sorted lists names exactly the entries either
// side lacks. A digest never carries state: its size is one word per object.

// digestEntry is one live replica or tombstone of a digest: its fingerprint
// under the pass's salt, and the object it stands for.
type digestEntry struct {
	print uint64
	id    object.ID
}

// digestLocked returns the digest of the replicas and tombstones the peer
// replicates, sorted by fingerprint; callers hold m.mu.
func (m *Manager) digestLocked(peer transport.NodeID, salt uint64) []digestEntry {
	out := make([]digestEntry, 0, len(m.meta)+len(m.tombstones))
	for id, rs := range m.meta {
		if m.placement == nil || rs.info.HasReplica(peer) {
			out = append(out, digestEntry{placedPrint(fingerprint(salt, id, rs.vv, false), rs.info), id})
		}
	}
	for id, vv := range m.tombstones {
		if m.placement == nil || m.hostsLocked(id, peer) {
			out = append(out, digestEntry{fingerprint(salt, id, vv, true), id})
		}
	}
	slices.SortFunc(out, func(a, b digestEntry) int { return cmp.Compare(a.print, b.print) })
	return out
}

// hostsLocked reports whether the peer replicates the (possibly deleted)
// object under the placement ring. Tombstones carry no Info, so relevance is
// re-derived from the ring.
func (m *Manager) hostsLocked(id object.ID, peer transport.NodeID) bool {
	_, replicas := m.placement.Place(id)
	return slices.Contains(replicas, peer)
}

// fingerprint hashes one digest entry — object ID, vector in node order and
// tombstone flag — under the pass's salt. Identical entries produce identical
// fingerprints on both sides; any difference in the vector or the deletion
// status changes it. A zero component hashes as an absent one. The salt
// changes every pass, so a 64-bit collision that masks one divergence does
// not mask it twice.
func fingerprint(salt uint64, id object.ID, vv VersionVector, deleted bool) uint64 {
	h := hashString(offset64, string(id))
	var buf [8]byte
	for _, c := range vv {
		if c.Count == 0 {
			continue
		}
		h = hashString(h, string(c.Node))
		binary.LittleEndian.PutUint64(buf[:], uint64(c.Count))
		h = hashString(h, string(buf[:]))
	}
	if deleted {
		h = hashString(h, "\xff")
	}
	return mix64(h ^ salt)
}

// placedPrint folds a live replica's placement into its fingerprint: two
// replicas at one vector can hold the placements of two incarnations (an
// apply of the later one overtook its create at one of them), and the pass
// that finds them apart hands the newer to both (placeLocked).
func placedPrint(print uint64, info Info) uint64 {
	h := hashString(print, string(info.Home))
	for _, r := range info.Replicas {
		h = hashString(hashString(h, "\x00"), string(r))
	}
	return mix64(h)
}

// FNV-1a, 64 bits.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the fmix64 finalizer (MurmurHash3): full avalanche, so salted
// fingerprints and the salts themselves are well distributed.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// TombstoneCount reports how many deletions the node remembers; tests
// compare it across replicas after quiescence.
func (m *Manager) TombstoneCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tombstones)
}
