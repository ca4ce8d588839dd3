package replication

import "encoding/gob"

// Wire payload registration: every value the replication service puts into an
// interface-typed transport payload slot — the batch request and its ack, the
// fetch reply and the reconciliation pull reply — must have its concrete type
// registered with gob before it can cross the real wire. Each package
// registers exactly the types it owns.
//
// The ack goes under a short name: gob writes the registered name in front of
// every interface value and the decoder allocates a buffer for it per
// message, so under the default (import path and type name, 36 bytes) the
// two-integer reply would weigh more on the wire and on the heap than the
// text it replaces.
func init() {
	gob.Register(batchMsg{})
	gob.RegisterName("repl.ack", batchAck{})
	gob.Register(fetchReply{})
	gob.Register(Record{})
	gob.Register([]Record(nil))
}
