// Package replication implements the replication service (RS) of Figure 4.1
// and §4.3: replica metadata with version vectors, synchronous update
// propagation over group communication, degraded-mode state history, replica
// staleness reporting towards the constraint consistency manager, and the
// propagation of missed updates with write-write conflict detection for the
// reconciliation phase (§4.4).
//
// Five replica-control protocols are provided:
//
//   - PrimaryBackup: the classic protocol; writes require the designated
//     primary to be reachable.
//   - PrimaryPerPartition (P4, [BBG+06]): primary-backup in a healthy
//     system; during degraded mode every partition elects a temporary
//     primary per object, so all partitions stay writable at the price of
//     consistency threats.
//   - PrimaryPartition ([RSB93]): the conventional baseline; only the
//     majority-weight partition may write.
//   - AdaptiveVoting ([7] in the dissertation): quorum-based writes whose
//     quorum adapts in degraded mode; sub-quorum writes are permitted but
//     reported stale so that the threat mechanism governs them.
//   - Quorum: threshold commit; a write returns once a configurable number
//     of replicas (default: strict majority) acked the batch, stragglers
//     catch up in the background or through reconciliation.
package replication

import (
	"errors"
	"fmt"
	"slices"

	"dedisys/internal/group"
	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// Errors of the replication layer.
var (
	// ErrNoReplica reports that the object has no replica on this node and
	// no reachable replica elsewhere.
	ErrNoReplica = errors.New("replication: no reachable replica")
	// ErrWriteNotAllowed reports that the protocol forbids writes in the
	// current partition (e.g. non-primary partition under PrimaryPartition).
	ErrWriteNotAllowed = errors.New("replication: write not allowed in this partition")
	// ErrUnknownObject reports missing replica metadata.
	ErrUnknownObject = errors.New("replication: unknown object")
)

// Info is the replica placement metadata of one logical object.
type Info struct {
	// Home is the designated primary node.
	Home transport.NodeID
	// Replicas are all nodes hosting a copy (including Home).
	Replicas []transport.NodeID
}

// NewInfo builds a normalized Info: the replica set is deduplicated and
// sorted. Every producer of placement metadata — the manager's Create path,
// placement-derived Infos and tests — goes through this constructor, so the
// "Replicas is sorted" property downstream code relies on (temporary-primary
// election picks the first reachable replica; every node must pick the same
// one) is enforced rather than assumed. Home is not implicitly added to the
// replica set: a caller may deliberately designate a non-hosting home.
func NewInfo(home transport.NodeID, replicas []transport.NodeID) Info {
	out := append(make([]transport.NodeID, 0, len(replicas)), replicas...)
	slices.Sort(out)
	return Info{Home: home, Replicas: slices.Compact(out)}
}

// HasReplica reports whether a node hosts a copy.
func (i Info) HasReplica(n transport.NodeID) bool {
	return slices.Contains(i.Replicas, n)
}

// reachable counts the replica nodes present in the view.
func (i Info) reachable(view group.View) int {
	n := 0
	for _, r := range i.Replicas {
		if view.Contains(r) {
			n++
		}
	}
	return n
}

// reachableReplicas returns the replica nodes present in the view, sorted,
// for the staging paths that address them. View.Members are sorted by
// construction; Info literals are normalized through NewInfo when the manager
// first records them, so the sorted order holds for every Info the protocols
// see even when a caller hands the manager an unsorted Replicas slice. When
// one list is a subset of the other — every replica in view (the healthy
// steady state), or every member a replica (a partition under full
// replication, a filtered view) — that list is the intersection and is
// returned itself: callers treat the result as read-only, and the cap clamp
// makes an append reallocate rather than write into the shared Info or the
// published view, whose Members are never written.
func (i Info) reachableReplicas(view group.View) []transport.NodeID {
	switch n := i.reachable(view); n {
	case 0:
		return nil
	case len(i.Replicas):
		return i.Replicas[:n:n]
	case len(view.Members):
		return view.Members[:n:n]
	default:
		out := make([]transport.NodeID, 0, n)
		for _, r := range i.Replicas {
			if view.Contains(r) {
				out = append(out, r)
			}
		}
		return out
	}
}

// Protocol is a replica-control strategy.
type Protocol interface {
	// Name returns the protocol identifier.
	Name() string
	// Coordinator returns the node that must coordinate a write on the
	// object within the given view.
	Coordinator(info Info, view group.View) (transport.NodeID, error)
	// WriteAllowed reports whether the protocol permits writes on the
	// object in the given view; weight is the partition weight fraction.
	WriteAllowed(info Info, view group.View, weight float64) error
	// PossiblyStale reports whether local reads of the object may miss
	// updates applied in other partitions, asked only while a replica is out
	// of view (none is stale otherwise); weight is as for WriteAllowed.
	PossiblyStale(info Info, view group.View, weight float64) bool
}

// homeOrFirstReachable is the coordinator rule of every protocol but
// PrimaryBackup: the designated home while it is in view; otherwise the
// smallest reachable replica node takes over as temporary primary (Replicas
// are sorted, so every node of a partition elects the same one); with no
// replica in view there is nobody to coordinate.
func homeOrFirstReachable(info Info, view group.View) (transport.NodeID, error) {
	if view.Contains(info.Home) {
		return info.Home, nil
	}
	for _, r := range info.Replicas {
		if view.Contains(r) {
			return r, nil
		}
	}
	return "", fmt.Errorf("%w: object home %s", ErrNoReplica, info.Home)
}

// replicaUnreachable is the staleness rule of the primary-based protocols: a
// view that misses any replica may miss that replica's writes.
func replicaUnreachable(info Info, view group.View) bool {
	return info.reachable(view) < len(info.Replicas)
}

// majorityUnreachable is the staleness rule of the voting protocols: reads
// are reliable only with a strict majority of the replicas in view.
func majorityUnreachable(info Info, view group.View) bool {
	return 2*info.reachable(view) <= len(info.Replicas)
}

// PrimaryBackup is the traditional protocol: the designated primary
// coordinates all writes; if it is unreachable, writes block.
type PrimaryBackup struct{}

var _ Protocol = PrimaryBackup{}

// Name implements Protocol.
func (PrimaryBackup) Name() string { return "primary-backup" }

// Coordinator implements Protocol.
func (PrimaryBackup) Coordinator(info Info, view group.View) (transport.NodeID, error) {
	if view.Contains(info.Home) {
		return info.Home, nil
	}
	return "", fmt.Errorf("%w: primary %s unreachable", ErrWriteNotAllowed, info.Home)
}

// WriteAllowed implements Protocol.
func (p PrimaryBackup) WriteAllowed(info Info, view group.View, _ float64) error {
	_, err := p.Coordinator(info, view)
	return err
}

// PossiblyStale implements Protocol: a read is reliable only when served
// while the primary is reachable (backups are synchronously maintained), so
// staleness arises exactly when the primary is outside the view.
func (PrimaryBackup) PossiblyStale(info Info, view group.View, _ float64) bool {
	return !view.Contains(info.Home)
}

// PrimaryPerPartition is the P4 protocol (§4.3): in a healthy system it
// equals primary-backup; in degraded mode each partition elects a temporary
// primary per object (the smallest reachable replica node), keeping every
// partition writable.
type PrimaryPerPartition struct{}

var _ Protocol = PrimaryPerPartition{}

// Name implements Protocol.
func (PrimaryPerPartition) Name() string { return "P4" }

// Coordinator implements Protocol.
func (PrimaryPerPartition) Coordinator(info Info, view group.View) (transport.NodeID, error) {
	return homeOrFirstReachable(info, view)
}

// WriteAllowed implements Protocol: writes are allowed wherever a replica is
// reachable.
func (p PrimaryPerPartition) WriteAllowed(info Info, view group.View, _ float64) error {
	_, err := p.Coordinator(info, view)
	return err
}

// PossiblyStale implements Protocol: under P4, objects are possibly stale in
// every partition that does not see the full replica set, because another
// partition may have a temporary primary of its own (§3.1).
func (PrimaryPerPartition) PossiblyStale(info Info, view group.View, _ float64) bool {
	return replicaUnreachable(info, view)
}

// PrimaryPartition is the conventional availability baseline [RSB93]: only
// the partition holding a strict majority of the system weight may write;
// other partitions are read-only on possibly stale data.
type PrimaryPartition struct{}

var _ Protocol = PrimaryPartition{}

// Name implements Protocol.
func (PrimaryPartition) Name() string { return "primary-partition" }

// Coordinator implements Protocol.
func (p PrimaryPartition) Coordinator(info Info, view group.View) (transport.NodeID, error) {
	return homeOrFirstReachable(info, view)
}

// WriteAllowed implements Protocol.
func (PrimaryPartition) WriteAllowed(info Info, view group.View, weight float64) error {
	if weight > 0.5 {
		return nil
	}
	return fmt.Errorf("%w: partition weight %.2f is not a majority", ErrWriteNotAllowed, weight)
}

// PossiblyStale implements Protocol: the primary partition is never stale,
// since only it writes; elsewhere an object is possibly stale wherever one of
// its replicas is unreachable.
func (PrimaryPartition) PossiblyStale(info Info, view group.View, weight float64) bool {
	return weight <= 0.5 && replicaUnreachable(info, view)
}

// AdaptiveVoting is the quorum protocol whose write quorum adapts to the
// degraded mode: with a reachable majority it behaves like a static quorum
// protocol; in minority partitions writes remain possible but are reported
// possibly stale so only operations with acceptable consistency threats
// proceed (§4.3, further reading).
type AdaptiveVoting struct{}

var _ Protocol = AdaptiveVoting{}

// Name implements Protocol.
func (AdaptiveVoting) Name() string { return "adaptive-voting" }

// Coordinator implements Protocol: the designated home coordinates while
// reachable; otherwise the smallest reachable replica node takes over, as
// under P4.
func (AdaptiveVoting) Coordinator(info Info, view group.View) (transport.NodeID, error) {
	return homeOrFirstReachable(info, view)
}

// WriteAllowed implements Protocol: some replica must be reachable; the
// adaptive quorum admits sub-majority writes (they surface as threats).
func (AdaptiveVoting) WriteAllowed(info Info, view group.View, _ float64) error {
	if info.reachable(view) == 0 {
		return fmt.Errorf("%w: object home %s", ErrNoReplica, info.Home)
	}
	return nil
}

// PossiblyStale implements Protocol: reads are reliable only with a strict
// majority read quorum of replicas reachable.
func (AdaptiveVoting) PossiblyStale(info Info, view group.View, _ float64) bool {
	return majorityUnreachable(info, view)
}

// Quorum is the threshold-commit protocol (§4.3's adaptive-voting write
// path, the Prop/Ack shape of threshold witnessing): a commit is durable
// once a configurable number of replicas acked — by default a strict
// majority — and returns without waiting for the slowest link. The manager
// runs the commit's multicast round with release on verdict (group.OnVerdict;
// every object of the batch needs its own CommitAcks), the straggler sends
// complete in the background, and replicas that missed the round converge
// via reconciliation. Writes require the quorum to be reachable, so unlike
// AdaptiveVoting, sub-quorum partitions are read-only.
type Quorum struct {
	// Threshold is the total number of replica acks (including the
	// coordinator's local apply) required to commit; 0 selects a strict
	// majority of the object's replica set. Values are clamped to
	// [1, replica count] per object.
	Threshold int
}

var _ Protocol = Quorum{}

// Name implements Protocol.
func (Quorum) Name() string { return "quorum" }

// CommitAcks returns how many replica acks — counting the coordinator's own
// local apply — a commit must gather before it returns, for an object with
// the given replica count.
func (q Quorum) CommitAcks(replicas int) int {
	if replicas < 1 {
		return 0
	}
	need := q.Threshold
	if need <= 0 {
		need = replicas/2 + 1
	}
	if need > replicas {
		need = replicas
	}
	if need < 1 {
		need = 1
	}
	return need
}

// Coordinator implements Protocol: the designated home coordinates while
// reachable; otherwise the smallest reachable replica node takes over, as
// under P4.
func (Quorum) Coordinator(info Info, view group.View) (transport.NodeID, error) {
	return homeOrFirstReachable(info, view)
}

// WriteAllowed implements Protocol: the commit quorum must be reachable —
// a partition that cannot possibly gather CommitAcks acks is read-only.
func (q Quorum) WriteAllowed(info Info, view group.View, _ float64) error {
	reachable := info.reachable(view)
	if reachable == 0 {
		return fmt.Errorf("%w: object home %s", ErrNoReplica, info.Home)
	}
	if need := q.CommitAcks(len(info.Replicas)); reachable < need {
		return fmt.Errorf("%w: %d of %d replicas reachable, quorum is %d", ErrWriteNotAllowed, reachable, len(info.Replicas), need)
	}
	return nil
}

// PossiblyStale implements Protocol: reads are reliable only with a strict
// majority of replicas reachable — any smaller partition may have missed a
// quorum commit gathered elsewhere, and even within the write partition a
// replica may be a straggler the threshold round did not wait for.
func (Quorum) PossiblyStale(info Info, view group.View, _ float64) bool {
	return majorityUnreachable(info, view)
}

// ProtocolByName resolves a protocol identifier as accepted by the CLI
// -protocol flags and the script engine. quorumThreshold is only meaningful
// for "quorum" (0 keeps the majority default).
func ProtocolByName(name string, quorumThreshold int) (Protocol, error) {
	switch name {
	case "", "P4", "p4", "primary-per-partition":
		return PrimaryPerPartition{}, nil
	case "primary-backup", "pb":
		return PrimaryBackup{}, nil
	case "primary-partition", "pp":
		return PrimaryPartition{}, nil
	case "adaptive-voting", "av":
		return AdaptiveVoting{}, nil
	case "quorum", "q":
		return Quorum{Threshold: quorumThreshold}, nil
	}
	return nil, fmt.Errorf("replication: unknown protocol %q (want P4, primary-backup, primary-partition, adaptive-voting or quorum)", name)
}

// VersionVector counts, per coordinating node, how many committed updates an
// object replica has absorbed. Vectors detect missed updates and write-write
// conflicts across partitions. Its components are sorted by node, one per
// node; an absent node counts 0, so a zero component equals an absent one.
//
// A vector is never written after it is built: no method writes its receiver
// or its argument, Bumped and Merged return the successor as a new slice, and
// the manager advances a replica by reassigning it under its lock. The
// replica table, tombstones, messages, records, digests and history entries
// therefore share vectors by reference, across goroutines and (on the
// simulator) across nodes; Clone is for a vector handed to code outside that
// rule. Nor is a vector converted to any, which allocates (DESIGN.md §15).
type VersionVector []Component

// Component is one node's count in a VersionVector.
type Component struct {
	Node  transport.NodeID
	Count int64
}

// Get returns the node's count.
func (v VersionVector) Get(n transport.NodeID) int64 {
	for _, c := range v {
		if c.Node == n {
			return c.Count
		}
	}
	return 0
}

// Clone copies the vector.
func (v VersionVector) Clone() VersionVector { return v.grown(0) }

// grown returns a copy of the vector with room for extra more components.
func (v VersionVector) grown(extra int) VersionVector {
	return append(make(VersionVector, 0, len(v)+extra), v...)
}

// Bumped returns a copy of the vector with the component of the coordinating
// node incremented.
func (v VersionVector) Bumped(n transport.NodeID) VersionVector {
	i := 0
	for i < len(v) && v[i].Node < n {
		i++
	}
	if i < len(v) && v[i].Node == n {
		out := v.grown(0)
		out[i].Count++
		return out
	}
	return slices.Insert(v.grown(1), i, Component{Node: n, Count: 1})
}

// Compare returns the ordering of two vectors:
//
//	-1 if v < o (o dominates), 0 if equal, +1 if v > o (v dominates),
//	and ok=false when the vectors are concurrent (write-write conflict).
func (v VersionVector) Compare(o VersionVector) (cmp int, ok bool) {
	less, greater := false, false
	for i, j := 0, 0; i < len(v) || j < len(o); {
		var a, b int64 // the counts of the next node in either list
		switch {
		case j == len(o) || i < len(v) && v[i].Node < o[j].Node:
			a, i = v[i].Count, i+1
		case i == len(v) || o[j].Node < v[i].Node:
			b, j = o[j].Count, j+1
		default:
			a, b, i, j = v[i].Count, o[j].Count, i+1, j+1
		}
		greater = greater || a > b
		less = less || b > a
	}
	switch {
	case less && greater:
		return 0, false
	case greater:
		return 1, true
	case less:
		return -1, true
	default:
		return 0, true
	}
}

// Merged returns the component-wise maximum of the two vectors: v itself when
// o adds nothing to it, a new vector otherwise.
func (v VersionVector) Merged(o VersionVector) VersionVector {
	if cmp, ok := v.Compare(o); ok && cmp >= 0 {
		return v
	}
	out, i := make(VersionVector, 0, len(v)+len(o)), 0
	for _, c := range o {
		for ; i < len(v) && v[i].Node < c.Node; i++ {
			out = append(out, v[i])
		}
		if i < len(v) && v[i].Node == c.Node {
			c.Count, i = max(c.Count, v[i].Count), i+1
		} else if c.Count <= 0 {
			continue // a count not above the absent 0 adds nothing
		}
		out = append(out, c)
	}
	return append(out, v[i:]...)
}

// Total returns the sum of all components (the total update count).
func (v VersionVector) Total() int64 {
	var t int64
	for _, c := range v {
		t += c.Count
	}
	return t
}

// HistoryEntry is one intermediate state recorded during degraded mode for
// rollback-based reconciliation (§4.3).
type HistoryEntry struct {
	State   object.Attrs
	Version int64
	VV      VersionVector
}
