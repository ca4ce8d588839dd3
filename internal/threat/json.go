package threat

import (
	"slices"
	"strconv"

	"dedisys/internal/constraint"
	"dedisys/internal/persistence"
)

// A threat is stored as three records (see Store.Add): the threat, its
// affected objects and its application data. Each encodes itself, byte for
// byte what encoding/json writes for the same value, so that storing a threat
// costs no reflection (DESIGN.md §15, fourth rule).

// AppendJSON appends the threat's JSON encoding to dst: the fields in
// declaration order under their json tags, appData and uid omitted when
// empty. On error dst is returned as it came.
func (t *Threat) AppendJSON(dst []byte) ([]byte, error) {
	out := strconv.AppendInt(append(dst, `{"seq":`...), t.Seq, 10)
	out = persistence.AppendString(append(out, `,"constraint":`...), t.Constraint)
	out = persistence.AppendString(append(out, `,"contextId":`...), string(t.ContextID))
	out = strconv.AppendInt(append(out, `,"degree":`...), int64(t.Degree), 10)
	out, err := affectedList(t.Affected).AppendJSON(append(out, `,"affected":`...))
	if err != nil {
		return dst, err
	}
	if len(t.AppData) > 0 {
		out, _ = appData(t.AppData).AppendJSON(append(out, `,"appData":`...)) // strings always encode
	}
	out = appendInstructions(append(out, `,"instructions":`...), t.Instructions)
	out = strconv.AppendInt(append(out, `,"count":`...), int64(t.Count), 10)
	out = strconv.AppendInt(append(out, `,"txId":`...), t.TxID, 10)
	if t.UID != "" {
		out = persistence.AppendString(append(out, `,"uid":`...), t.UID)
	}
	return append(out, '}'), nil
}

// AppendJSON appends the affected object's JSON encoding to dst, its state
// omitted when empty. On error dst is returned as it came.
func (a AffectedObject) AppendJSON(dst []byte) ([]byte, error) {
	out := persistence.AppendString(append(dst, `{"id":`...), string(a.ID))
	out = persistence.AppendString(append(out, `,"class":`...), a.Class)
	out = appendStaleness(append(out, `,"staleness":`...), a.Staleness)
	if len(a.State) > 0 {
		var err error
		if out, err = a.State.AppendJSON(append(out, `,"state":`...)); err != nil {
			return dst, err
		}
	}
	return append(out, '}'), nil
}

// affectedList is a threat's affected objects as the second record stores
// them: null when nil.
type affectedList []AffectedObject

// AppendJSON implements the persistence store's self-encoding record.
func (l affectedList) AppendJSON(dst []byte) ([]byte, error) {
	if l == nil {
		return append(dst, "null"...), nil
	}
	out := append(dst, '[')
	for i, a := range l {
		if i > 0 {
			out = append(out, ',')
		}
		var err error
		if out, err = a.AppendJSON(out); err != nil {
			return dst, err
		}
	}
	return append(out, ']'), nil
}

// appData is a threat's application data as the third record stores it: null
// when nil, keys in byte order.
type appData map[string]string

// AppendJSON implements the persistence store's self-encoding record.
func (d appData) AppendJSON(dst []byte) ([]byte, error) {
	if d == nil {
		return append(dst, "null"...), nil
	}
	var buf [8]string
	keys := buf[:0]
	for k := range d {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = persistence.AppendString(append(persistence.AppendString(dst, k), ':'), d[k])
	}
	return append(dst, '}'), nil
}

func appendStaleness(dst []byte, s constraint.Staleness) []byte {
	dst = strconv.AppendBool(append(dst, `{"PossiblyStale":`...), s.PossiblyStale)
	dst = strconv.AppendInt(append(dst, `,"Version":`...), s.Version, 10)
	dst = strconv.AppendInt(append(dst, `,"EstimatedLatest":`...), s.EstimatedLatest, 10)
	return append(dst, '}')
}

func appendInstructions(dst []byte, in constraint.ReconciliationInstructions) []byte {
	dst = strconv.AppendBool(append(dst, `{"AllowRollback":`...), in.AllowRollback)
	dst = strconv.AppendBool(append(dst, `,"NotifyOnReplicaConflict":`...), in.NotifyOnReplicaConflict)
	return append(dst, '}')
}
