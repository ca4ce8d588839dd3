package threat

import (
	"encoding/binary"
	"encoding/gob"
	"slices"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// Wire payload registration: the CCM ships a whole store as a threat list
// (ccm.threat.sync and its reply). A threat change (Delta) never travels
// bare: it rides a field of replication's batch, which needs no registration.
// Each package registers exactly the types it owns.
func init() {
	gob.Register(Threat{})
	gob.Register([]Threat(nil))
}

// AppendWire appends the first of a threat's three records (Store.Add), its
// scalar fields in a compact form of the wire's primitives: sequence number,
// constraint, context object, degree, the two instructions, count,
// transaction and UID.
func (t *Threat) AppendWire(dst []byte) ([]byte, bool) {
	out := transport.AppendWireString(binary.AppendVarint(dst, t.Seq), t.Constraint)
	out = binary.AppendVarint(transport.AppendWireString(out, string(t.ContextID)), int64(t.Degree))
	out = appendBool(appendBool(out, t.Instructions.AllowRollback), t.Instructions.NotifyOnReplicaConflict)
	out = binary.AppendVarint(binary.AppendVarint(out, int64(t.Count)), t.TxID)
	return transport.AppendWireString(out, t.UID), true
}

// ReadWire is AppendWire's inverse; it leaves Affected and AppData nil.
func (t *Threat) ReadWire(r *transport.WireReader) {
	*t = Threat{Seq: r.Varint(), Constraint: r.Name(), ContextID: object.ID(r.String()), Degree: constraint.Degree(r.Varint())}
	t.Instructions = constraint.ReconciliationInstructions{AllowRollback: readBool(r), NotifyOnReplicaConflict: readBool(r)}
	t.Count, t.TxID, t.UID = int(r.Varint()), r.Varint(), r.String()
}

// affectedList is a threat's affected objects, its second record.
type affectedList []AffectedObject

// AppendWire writes the count, then per object its ID, class, staleness and
// captured state (State.AppendWire), declining a state the form cannot carry.
func (l *affectedList) AppendWire(dst []byte) ([]byte, bool) {
	out := binary.AppendUvarint(dst, uint64(len(*l)))
	for i := range *l {
		a := &(*l)[i]
		out = appendBool(transport.AppendWireString(transport.AppendWireString(out, string(a.ID)), a.Class), a.Staleness.PossiblyStale)
		out = binary.AppendVarint(binary.AppendVarint(out, a.Staleness.Version), a.Staleness.EstimatedLatest)
		var ok bool
		if out, ok = a.State.AppendWire(out); !ok {
			return dst, false
		}
	}
	return out, true
}

// ReadWire is AppendWire's inverse; an empty list or state comes back nil.
func (l *affectedList) ReadWire(r *transport.WireReader) {
	*l = nil
	if n := r.Count(6); n > 0 { // two lengths, a flag, two varints and a state header
		*l = make(affectedList, n)
	}
	for i := range *l {
		a := &(*l)[i]
		a.ID, a.Class, a.Staleness.PossiblyStale = object.ID(r.String()), r.Name(), readBool(r)
		a.Staleness.Version, a.Staleness.EstimatedLatest = r.Varint(), r.Varint()
		a.State.ReadWire(r)
	}
}

// appData is a threat's application data, its third record.
type appData map[string]string

// AppendWire writes a map header, then key and value per entry in key order.
func (d appData) AppendWire(dst []byte) ([]byte, bool) {
	var buf [8]string
	keys := buf[:0]
	for k := range d {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = transport.AppendWireMapLen(dst, len(d), d == nil)
	for _, k := range keys {
		dst = transport.AppendWireString(transport.AppendWireString(dst, k), d[k])
	}
	return dst, true
}

// ReadWire is AppendWire's inverse; an empty map comes back nil, and a key
// that does not follow the one before it in byte order fails the reader.
func (d *appData) ReadWire(r *transport.WireReader) {
	n, _ := r.MapLen(2) // two lengths
	*d = nil
	for i, prev := 0, ""; i < n; i++ {
		if *d == nil {
			*d = make(appData, n)
		}
		k := r.String()
		if i > 0 && k <= prev {
			r.Fail("threat: application data key %q after %q", k, prev)
		}
		(*d)[k], prev = r.String(), k
	}
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// readBool reads what appendBool wrote; any other byte fails the reader.
func readBool(r *transport.WireReader) bool {
	b := r.Byte()
	if b > 1 {
		r.Fail("threat: flag byte %d", b)
	}
	return b == 1
}
