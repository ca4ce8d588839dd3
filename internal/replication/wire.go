package replication

import "encoding/gob"

// Wire payload registration: every value the replication service puts into an
// interface-typed transport payload slot — the batch request, the fetch
// reply and the reconciliation pull reply — must have its concrete type
// registered with gob before it can cross the real wire. Each package
// registers exactly the types it owns.
func init() {
	gob.Register(batchMsg{})
	gob.Register(fetchReply{})
	gob.Register(Record{})
	gob.Register([]Record(nil))
}
