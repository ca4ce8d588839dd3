package replication

import (
	"encoding/binary"
	"encoding/gob"
	"sync"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// Wire payload registration: every value the replication service puts into an
// interface-typed transport payload slot — the batch request and its ack, the
// fetch reply, and the reconciliation pull request and its reply — must have its concrete type
// registered with gob before it can cross the real wire. Each package
// registers exactly the types it owns.
//
// The ack goes under a short name: gob writes the registered name in front of
// every interface value and the decoder allocates a buffer for it per
// message, so under the default (import path and type name, 36 bytes) the
// reply, most often empty, would weigh more on the wire and on the heap than
// the text it replaces.
//
// The batch and its ack are every frame of a replicated write, so they also
// encode themselves (transport.WirePayload, the forms below) and a frame that
// carries one bare skips gob altogether. Their gob registration stays: it is
// how they travel nested in another payload or with an error, how a batch
// whose state the form cannot carry travels, and the reference the forms are
// tested against.
//
// A batch travels as *batchMsg — a commit's round hands its senders pointers
// into its own memory, which the round reuses once its sends are answered;
// batches that queued for one peer together travel as *coalescedBatch, the
// rounds' pointers in one message, with a form of its own — and handleBatch
// takes no batchMsg value, so both
// bodies deliver the pointer: registered under the name gob.Register would
// give the value type, the pointer puts the same bytes on the wire and is what
// a gob frame decodes to. A batch that carries its transaction's threats
// travels as *threatBatch, which has no form of its own and always rides gob.
// An ack is a *batchAck on every path for the same reason — ackAll is one —
// so it is registered as the pointer too, and Answered reads one type.
func init() {
	gob.RegisterName("dedisys/internal/replication.batchMsg", &batchMsg{})
	gob.Register(&threatBatch{})
	gob.Register(&coalescedBatch{})
	gob.RegisterName("repl.ack", &batchAck{})
	gob.Register(fetchReply{})
	gob.Register(pullMsg{})
	gob.Register(pullReply{})
	transport.RegisterWire(wireTagBatch, readBatchWire)
	transport.RegisterWire(wireTagAck, readAckWire)
	transport.RegisterWire(wireTagCoalesced, readCoalescedWire)
}

// Payload tags of the self-encoded forms.
const (
	wireTagBatch byte = 1 + iota
	wireTagAck
	wireTagCoalesced
)

func (*batchMsg) WireTag() byte { return wireTagBatch }

// AppendWire writes the op count, then each op's form. It declines what an op
// declines, which then reaches applyOps' own rejection through gob as before.
func (b *batchMsg) AppendWire(dst []byte) ([]byte, bool) {
	out := binary.AppendUvarint(dst, uint64(len(b.Ops)))
	for i := range b.Ops {
		var ok bool
		if out, ok = b.Ops[i].AppendWire(out); !ok {
			return dst, false
		}
	}
	return out, true
}

// AppendWire writes one op — its kind byte, the ID, state and version unless
// it is a delete, the vector, and class and placement if it is a create — as
// a batch carries it and the store keeps it (a replica's record, a history
// entry). It declines, returning dst, an unknown kind or a state Attrs does.
func (op *batchOp) AppendWire(dst []byte) ([]byte, bool) {
	if !op.Kind.known() {
		return dst, false
	}
	out := transport.AppendWireString(append(dst, byte(op.Kind)), string(op.ID))
	if op.Kind != opDelete {
		var ok bool
		if out, ok = op.State.AppendWire(out); !ok {
			return dst, false
		}
		out = binary.AppendVarint(out, op.Version)
	}
	out = op.VV.appendWire(out)
	if op.Kind == opCreate {
		out = transport.AppendWireString(out, op.Class)
		out = transport.AppendWireString(out, string(op.Info.Home))
		out = binary.AppendUvarint(out, uint64(len(op.Info.Replicas)))
		for _, r := range op.Info.Replicas {
			out = transport.AppendWireString(out, string(r))
		}
	}
	return out, true
}

// ReadWire is AppendWire's inverse, for a batch's op and a stored record
// alike, over the whole op. IDs and attribute values are fresh strings, class
// and node names come from r's name table; an empty replica list stays nil.
func (op *batchOp) ReadWire(r *transport.WireReader) {
	if *op = (batchOp{Kind: opKind(r.Byte())}); !op.Kind.known() {
		r.Fail("replication: unknown batch op kind %d", op.Kind)
		return
	}
	op.ID = object.ID(r.String())
	if op.Kind != opDelete {
		op.State = object.ReadAttrsWire(r)
		op.Version = r.Varint()
	}
	op.VV = readVectorWire(r)
	if op.Kind == opCreate {
		op.Class = r.Name()
		op.Info.Home = transport.NodeID(r.Name())
		if n := r.Count(1); n > 0 {
			op.Info.Replicas = make([]transport.NodeID, n)
		}
		for j := range op.Info.Replicas {
			op.Info.Replicas[j] = transport.NodeID(r.Name())
		}
	}
}

// oneOpBatch is a decoded batch of one op, every write's, with the op inline:
// the box and the op list are one allocation.
type oneOpBatch struct {
	batchMsg
	op [1]batchOp
}

// decoded is the free list of batches the wire decoded and released.
var decoded sync.Pool

// Release implements transport.Releaser: the wire transport calls it on a
// batch it decoded once the batch's handler has returned. The ops are zeroed
// and their array, a one-op batch's inline op included, is kept for the next
// decode; the states, vectors and placements the ops pointed to are the
// replica's now, and no decode writes to them.
func (b *batchMsg) Release() {
	clear(b.Ops)
	b.Ops = b.Ops[:0]
	decoded.Put(b)
}

// readBatchWire is batchMsg.AppendWire's inverse; like every sender it hands
// over a *batchMsg, a released one when there is one, and reads each op with
// batchOp.ReadWire. Like gob it leaves an empty op list nil.
func readBatchWire(r *transport.WireReader) any {
	n := r.Count(3) // the smallest op, a delete: kind, ID length, vector count
	if n == 0 {
		return new(batchMsg)
	}
	b, _ := decoded.Get().(*batchMsg)
	switch {
	case b != nil && cap(b.Ops) >= n:
		b.Ops = b.Ops[:n]
	case b != nil:
		b.Ops = make([]batchOp, n)
	case n == 1:
		one := new(oneOpBatch)
		one.Ops = one.op[:]
		b = &one.batchMsg
	default:
		b = &batchMsg{Ops: make([]batchOp, n)}
	}
	for i := range b.Ops {
		if b.Ops[i].ReadWire(r); r.Err() != nil {
			return nil
		}
	}
	return b
}

func (*coalescedBatch) WireTag() byte { return wireTagCoalesced }

// AppendWire writes the part count, then each part's batch form; it declines
// when a part does.
func (c *coalescedBatch) AppendWire(dst []byte) ([]byte, bool) {
	out := binary.AppendUvarint(dst, uint64(len(c.Parts)))
	for _, p := range c.Parts {
		var ok bool
		if out, ok = p.AppendWire(out); !ok {
			return dst, false
		}
	}
	return out, true
}

// readCoalescedWire is coalescedBatch.AppendWire's inverse.
func readCoalescedWire(r *transport.WireReader) any {
	c := &coalescedBatch{Parts: make([]*batchMsg, r.Count(1))} // a part is at least its op count
	for i := range c.Parts {
		p, _ := readBatchWire(r).(*batchMsg)
		if p == nil || r.Err() != nil {
			return nil
		}
		c.Parts[i] = p
	}
	return c
}

// Release implements transport.Releaser: a decoded coalesced batch releases
// its parts.
func (c *coalescedBatch) Release() {
	for _, p := range c.Parts {
		p.Release()
	}
	clear(c.Parts)
}

func (*batchAck) WireTag() byte { return wireTagAck }

// AppendWire writes the result count, then one byte per result: count 0 is
// ackAll. It declines a code that is none, which gob then carries.
func (a *batchAck) AppendWire(dst []byte) ([]byte, bool) {
	out := binary.AppendUvarint(dst, uint64(len(a.Results)))
	for _, c := range a.Results {
		if c >= numOpResults {
			return dst, false
		}
		out = append(out, byte(c))
	}
	return out, true
}

// readAckWire is batchAck.AppendWire's inverse. The all-landed form decodes
// to ackAll itself and allocates nothing; a code that is none fails the
// reader.
func readAckWire(r *transport.WireReader) any {
	n := r.Count(1)
	if n == 0 {
		return ackAll
	}
	res := make([]opResult, n)
	for i := range res {
		if res[i] = opResult(r.Byte()); res[i] >= numOpResults {
			r.Fail("replication: unknown op result %d", res[i])
			return nil
		}
	}
	return &batchAck{Results: res}
}

// appendWire writes a map header (nil and empty stay apart), then node ID and
// counter per component.
func (v VersionVector) appendWire(dst []byte) []byte {
	dst = transport.AppendWireMapLen(dst, len(v), v == nil)
	for _, c := range v {
		dst = binary.AppendVarint(transport.AppendWireString(dst, string(c.Node)), c.Count)
	}
	return dst
}

// readVectorWire decodes a vector of its own: the replica installs it by
// reference (see VersionVector). Like gob it leaves an empty vector nil; a
// repeated or descending node fails the reader.
func readVectorWire(r *transport.WireReader) VersionVector {
	n, _ := r.MapLen(2) // a component is at least an ID length and a counter
	if n == 0 {
		return nil
	}
	v := make(VersionVector, n)
	for i := range v {
		v[i] = Component{Node: transport.NodeID(r.Name()), Count: r.Varint()}
		if i > 0 && v[i].Node <= v[i-1].Node {
			r.Fail("replication: vector node %q after %q", v[i].Node, v[i-1].Node)
		}
	}
	return v
}
