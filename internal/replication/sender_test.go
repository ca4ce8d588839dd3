package replication

import (
	"errors"
	"reflect"
	"testing"
)

// TestCoalescedAckSplitsPerRound: a batch that carried several rounds' ops is
// answered once; each round reads the results of its own ops, and only a
// round one of whose ops did not land gets more than ackAll.
func TestCoalescedAckSplitsPerRound(t *testing.T) {
	mixed := &batchAck{Results: []opResult{opApplied, opUnknown, opDuplicate, opConcurrent}}
	for _, c := range []struct {
		name   string
		reply  any
		err    error
		at, k  int
		want   any
		wantOK bool // the part is an ack
	}{
		{"all landed", ackAll, nil, 1, 2, ackAll, true},
		{"landed part", mixed, nil, 0, 1, ackAll, true},
		{"landed duplicate", mixed, nil, 2, 1, ackAll, true},
		{"skipped part", mixed, nil, 0, 2, &batchAck{Results: []opResult{opApplied, opUnknown}}, true},
		{"concurrent part", mixed, nil, 3, 1, &batchAck{Results: []opResult{opConcurrent}}, true},
		{"send error", nil, errors.New("link down"), 0, 2, nil, false},
		{"no ack", "ok", nil, 0, 2, "ok", false},
	} {
		got := ackOf(c.reply, c.err).part(c.at, c.k, c.reply)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: part = %#v, want %#v", c.name, got, c.want)
		}
		if _, ok := got.(*batchAck); ok != c.wantOK {
			t.Errorf("%s: part is an ack: %v, want %v", c.name, ok, c.wantOK)
		}
	}
}
