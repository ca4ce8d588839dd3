package replication

import (
	"strconv"
	"sync"

	"dedisys/internal/object"
	"dedisys/internal/persistence"
)

// replicaRecord is the durable record of one replica, one per object in the
// one store write a replica makes per commit or received batch (table
// replica-meta, keyed by the object ID): the class, state and version of its entity, its vector and its
// placement. A metadata-only holder hosts no entity, so its record has
// placement and vector only. Every replica stores what it holds after the
// op that changed it, whatever the op's kind, so equal holdings are equal
// bytes on every replica.
type replicaRecord struct {
	Class   string       `json:",omitempty"`
	State   object.Attrs `json:",omitempty"`
	Version int64        `json:",omitempty"`
	VV      VersionVector
	Info    Info
}

// AppendJSON appends the record's JSON encoding to dst, byte for byte what
// json.Marshal writes for it, without the reflection.
func (r replicaRecord) AppendJSON(dst []byte) ([]byte, error) {
	out := append(dst, '{')
	if r.Class != "" {
		out = append(persistence.AppendString(append(out, `"Class":`...), r.Class), ',')
	}
	if len(r.State) > 0 {
		var err error
		if out, err = r.State.AppendJSON(append(out, `"State":`...)); err != nil {
			return dst, err
		}
		out = append(out, ',')
	}
	if r.Version != 0 {
		out = append(strconv.AppendInt(append(out, `"Version":`...), r.Version, 10), ',')
	}
	out, _ = r.VV.AppendJSON(append(out, `"VV":`...)) // a vector always encodes
	out = persistence.AppendString(append(out, `,"Info":{"home":`...), string(r.Info.Home))
	out = append(out, `,"replicas":`...)
	if r.Info.Replicas == nil {
		out = append(out, "null"...)
	} else {
		out = append(out, '[')
		for i, n := range r.Info.Replicas {
			if i > 0 {
				out = append(out, ',')
			}
			out = persistence.AppendString(out, string(n))
		}
		out = append(out, ']')
	}
	return append(out, "}}"...), nil
}

// replicaState is one live replica in the manager's table. Its fields are
// guarded by the manager lock, which mu points to; e is the hosted entity,
// nil on a metadata-only holder, and placed the vector of the create that set
// info (placeLocked).
type replicaState struct {
	mu      *sync.Mutex
	e       *object.Entity
	info    Info
	vv      VersionVector
	placed  VersionVector
	history []HistoryEntry
}

// newReplica returns a table entry of m for a replica at vv placed by info,
// hosting e (nil for none).
func (m *Manager) newReplica(e *object.Entity, info Info, vv VersionVector) *replicaState {
	return &replicaState{mu: &m.mu, e: e, info: info, vv: vv}
}

// AppendJSON appends the replica's record (replicaRecord) as the replica
// holds it now, read in one hold of the manager lock: state, version and
// vector are installed together under that lock, so the record is
// self-consistent. The store encodes it under its own lock, taken before the
// manager's (the caller released that), so every put site hands the store
// the table entry itself — a pointer, which boxes for free — no record is
// built for the write, and of two writes of one replica the one that stores
// last stores what the replica holds then.
func (rs *replicaState) AppendJSON(dst []byte) ([]byte, error) {
	rs.mu.Lock()
	rec := replicaRecord{VV: rs.vv, Info: rs.info}
	if rs.e != nil {
		rec.Class = rs.e.Class()
		rec.State, rec.Version = rs.e.Share()
	}
	rs.mu.Unlock()
	return rec.AppendJSON(dst)
}
