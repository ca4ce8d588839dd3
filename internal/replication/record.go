package replication

import (
	"sync"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// replicaState is one live replica in the manager's table. Its fields are
// guarded by the manager lock, which mu points to; id is the object's (it
// never changes), e the hosted entity, nil on a metadata-only holder, and
// placed the vector of the create that set info (placeLocked).
type replicaState struct {
	mu      *sync.Mutex
	id      object.ID
	e       *object.Entity
	info    Info
	vv      VersionVector
	placed  VersionVector
	history []HistoryEntry
}

// newReplica returns a table entry of m for a replica of id at vv placed by
// info, hosting e (nil for none).
func (m *Manager) newReplica(id object.ID, e *object.Entity, info Info, vv VersionVector) *replicaState {
	return &replicaState{mu: &m.mu, id: id, e: e, info: info, vv: vv}
}

// AppendWire appends the replica's record (table replica-meta, keyed by the
// object ID) as the replica holds it now, whatever op put it there: the wire
// form of the create that would install it (batchOp.AppendWire), which
// Record.ReadWire reads back; a metadata-only holder writes no class and a
// nil state. The replica is read in one hold of the manager lock, under which
// state, version and vector are installed together, so the record is
// self-consistent. The store encodes it under its own lock, taken before the
// manager's, so every put site hands the store the table entry itself — a
// pointer, which boxes for free — and of two writes of one replica the later
// stores what the replica holds then.
func (rs *replicaState) AppendWire(dst []byte) ([]byte, bool) {
	rs.mu.Lock()
	op := batchOp{Kind: opCreate, ID: rs.id, VV: rs.vv, Info: rs.info}
	if rs.e != nil {
		op.Class = rs.e.Class()
		op.State, op.Version = rs.e.Share()
	}
	rs.mu.Unlock()
	return op.AppendWire(dst)
}

// ReadWire reads a replica's stored record (replicaState.AppendWire) with the
// batch decoder's op reader, as the live Record a pull would carry of it
// without Placed and History; a stored op that is no create fails r.
func (rec *Record) ReadWire(r *transport.WireReader) {
	var op batchOp
	if op.ReadWire(r); r.Err() == nil && op.Kind != opCreate {
		r.Fail("replication: a replica record holds an op of kind %d", op.Kind)
	}
	*rec = Record{ID: op.ID, Class: op.Class, State: op.State, Version: op.Version, VV: op.VV, Info: op.Info}
}
