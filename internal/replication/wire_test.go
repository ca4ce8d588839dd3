package replication

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dedisys/internal/constraint"
	"dedisys/internal/group"
	"dedisys/internal/object"
	"dedisys/internal/persistence"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

// Nested values a State may hold although its wire form declines them; gob
// carries them once their types are registered, which only this test does.
func init() {
	gob.Register(map[string]any(nil))
	gob.Register([]any(nil))
}

// wireCase is one payload the replication service puts on the wire. gob is
// the reference: every case must survive wiretransport.RoundTrip, and a batch
// or ack must come out of the self-encoded path as exactly the value gob
// delivers — a replica installs what arrives, so a difference (an int64 for
// an int, nil for an empty map) would make its state depend on the path.
type wireCase struct {
	name    string
	payload any
	self    bool // the frame is self-encoded; false: it is declined or has no form, and rides gob
	lossy   bool // gob itself returns something else than was sent (it drops empty slices to nil)
}

func wireCases() []wireCase {
	st := object.State{
		"name": "alice", "balance": 42.5, "visits": 7, "vip": true,
		"refs": []object.ID{"acct-2", "acct-3"}, "tags": []string{"a", ""}, "owner": object.ID("cust-1"), "closed": nil,
	}
	vv := VersionVector{{Node: "a", Count: 3}, {Node: "b", Count: 1}}
	info := NewInfo("a", []transport.NodeID{"a", "b", "c"})
	create := batchOp{Kind: opCreate, ID: "acct-1", Class: "Account", State: object.AttrsOf(st), Version: 4, VV: vv, Info: info}
	apply := batchOp{Kind: opApply, ID: "acct-1", State: object.AttrsOf(st), Version: 5, VV: vv}
	del := batchOp{Kind: opDelete, ID: "acct-1", VV: vv}
	applyOf := func(st object.State) *batchMsg {
		return &batchMsg{Ops: []batchOp{{Kind: opApply, ID: "x", State: object.AttrsOf(st), Version: 2, VV: vv}}}
	}

	var four []batchOp
	wide := object.State{}
	for i := 0; i < 12; i++ {
		wide[fmt.Sprintf("attr%02d", i)] = int64(i)
		if i < 4 {
			four = append(four, batchOp{Kind: opApply,
				ID: object.ID(fmt.Sprintf("o%d", i)), State: object.AttrsOf(object.State{"value": int64(i)}), Version: int64(i + 2), VV: VersionVector{{Node: "a", Count: int64(i + 1)}},
			})
		}
	}
	// What a reconciliation pass owes one peer: every kind, many times over.
	var repair []batchOp
	for i := 0; i < 100; i++ {
		id, vv := object.ID(fmt.Sprintf("r%03d", i)), VersionVector{{Node: "a", Count: int64(i)}, {Node: "b", Count: int64(100 - i)}}
		switch i % 3 {
		case 0:
			repair = append(repair, batchOp{Kind: opApply, ID: id, State: object.AttrsOf(st), Version: int64(i), VV: vv})
		case 1:
			repair = append(repair, batchOp{Kind: opCreate, ID: id, Class: "Account", State: object.AttrsOf(object.State{"n": int64(i)}), Version: 1, VV: vv, Info: info})
		default:
			repair = append(repair, batchOp{Kind: opDelete, ID: id, VV: vv})
		}
	}
	return []wireCase{
		{name: "a pass's repairs: 100 mixed ops", self: true, payload: &batchMsg{Ops: repair}},
		{name: "create, apply and delete in one batch", self: true, payload: &batchMsg{Ops: []batchOp{
			create,
			apply,
			del,
		}}},
		{name: "four applies", self: true, payload: &batchMsg{Ops: four}},
		{name: "three rounds' batches coalesced", self: true, payload: &coalescedBatch{Parts: []*batchMsg{
			{Ops: four[:1]}, {Ops: []batchOp{create, del}}, {Ops: four[1:]},
		}}},
		{name: "a coalesced batch whose part declines rides gob", payload: &coalescedBatch{Parts: []*batchMsg{
			{Ops: four[:1]}, applyOf(object.State{"list": []any{"a", int64(1)}}),
		}}},
		{name: "nil state, vector and replicas", self: true, payload: &batchMsg{Ops: []batchOp{
			{Kind: opCreate, ID: "n"},
			{Kind: opApply, ID: "n"},
			{Kind: opDelete, ID: "n"},
		}}},
		{name: "empty state, vector, replicas and lists", self: true, lossy: true, payload: &batchMsg{Ops: []batchOp{
			{Kind: opCreate, ID: "e", State: object.AttrsOf(object.State{}), VV: VersionVector{}, Info: Info{Replicas: []transport.NodeID{}}},
			{Kind: opApply, ID: "e", State: object.AttrsOf(object.State{"refs": []object.ID{}, "tags": []string{}}), VV: VersionVector{}},
			{Kind: opDelete, ID: "e", VV: VersionVector{}},
		}}},
		{name: "no ops", self: true, payload: &batchMsg{}},
		{name: "empty op list", self: true, lossy: true, payload: &batchMsg{Ops: []batchOp{}}},
		{name: "more than eight attributes", self: true, payload: applyOf(wide)},
		{name: "int, int64 and float64 stay apart", self: true, payload: applyOf(object.State{
			"int": 7, "int64": int64(7), "float": 7.0, "negzero": math.Copysign(0, -1), "big": 1e21, "inf": math.Inf(-1),
			"maxint": math.MaxInt, "minint": math.MinInt, "max64": int64(math.MaxInt64), "min64": int64(math.MinInt64),
		})},
		{name: "empty and non-UTF-8 strings", self: true, payload: &batchMsg{Ops: []batchOp{{Kind: opApply,
			ID: "\xff\x00id", State: object.AttrsOf(object.State{"": "", "\xfe": "\xff\xfe\x00", "id": object.ID(""), "ids": []object.ID{"", "\x80"}}),
			Version: math.MinInt64, VV: VersionVector{{Node: "", Count: math.MaxInt64}, {Node: "\xff", Count: -1}},
		}}}},
		{name: "nested map declines", payload: applyOf(object.State{"v": int64(1), "nested": map[string]any{"k": "v"}})},
		{name: "nested list declines", payload: applyOf(object.State{"list": []any{"a", int64(1)}})},
		{name: "bad op kind declines", payload: &batchMsg{Ops: []batchOp{apply, {Kind: opDelete + 1}}}},
		// A batch that carries its transaction's threats has no form of its own.
		{name: "threats in the batch", payload: &threatBatch{Ops: four, Delta: threat.Delta{Added: []threat.Threat{{
			Seq: 4, Constraint: "NonNegative", ContextID: "o1", Degree: constraint.PossiblySatisfied, Count: 1, TxID: 12, UID: "a#4",
			Affected: []threat.AffectedObject{
				{ID: "o1", Class: "Account", Staleness: constraint.Staleness{PossiblyStale: true, Version: 3, EstimatedLatest: 5}, State: st},
				{ID: "o2", Class: "Account", Staleness: constraint.Staleness{Version: 7, EstimatedLatest: 7}},
			},
			AppData:      map[string]string{"operator": "alice"},
			Instructions: constraint.ReconciliationInstructions{AllowRollback: true},
		}}, Removed: []string{"NonNegative|o2", "Ticket|"}}}},
		// A change for a view member no round reaches, or a pass's removals,
		// travels in a threat batch with no ops (announce).
		{name: "a threat change with no ops", payload: &threatBatch{Delta: threat.Delta{
			Removed: []string{"NonNegative|o2"},
			Added:   []threat.Threat{{Seq: 5, Constraint: "NonNegative", ContextID: "o1", Degree: constraint.PossiblyViolated, Count: 1, TxID: 13, UID: "a#5"}},
		}}},
		// Handler acks that cross back as responses.
		{name: "ack", self: true, payload: ackAll},
		{name: "all-zero ack", self: true, payload: &batchAck{}}, // gob sends no field, the type must still arrive
		{name: "mixed ack", self: true, payload: &batchAck{Results: []opResult{opApplied, opUnknown, opDuplicate, opConcurrent}}},
		{name: "ack extremes", self: true, payload: &batchAck{Results: everyResult}}, // a two-byte count
		{name: "empty result list", self: true, lossy: true, payload: &batchAck{Results: []opResult{}}},
		{name: "result that is none declines", payload: &batchAck{Results: []opResult{opApplied, numOpResults}}},
		// The kinds that have no form of their own and stay on gob.
		{name: "fetch reply", payload: fetchReply{Class: "Account", State: object.AttrsOf(st), Version: 6, Stale: true}},
		{name: "records", payload: pullReply{Records: []Record{{
			ID: "acct-1", Class: "Account", State: object.AttrsOf(st), Version: 6, VV: vv, Info: info,
			History: []HistoryEntry{{State: object.AttrsOf(st), Version: 5, VV: vv}},
		}, {ID: "acct-2", VV: vv, Deleted: true}}, Unmatched: []uint64{42}}},
		{name: "bare ID (repl.fetch request)", payload: object.ID("acct-1")},
	}
}

// exchangeCases are the request and the reply shapes of ReconcileWith's one
// repair exchange. Neither has a form of its own; both ride gob.
func exchangeCases() []wireCase {
	vv := VersionVector{{Node: "n1", Count: 3}, {Node: "n2", Count: 7}}
	live := Record{
		ID: "o1", Class: "Reg", State: object.AttrsOf(object.State{"value": int64(9)}), Version: 4, VV: vv,
		Info: Info{Home: "n1", Replicas: []transport.NodeID{"n1", "n2"}}, Placed: VersionVector{{Node: "n1", Count: 1}},
	}
	return []wireCase{
		{name: "pull request", payload: pullMsg{Salt: 0x1234, Prints: []uint64{7, 0xabcdef, 1 << 63}}},
		{name: "empty pull request", payload: pullMsg{Salt: 1}}, // the asker replicates nothing the peer does
		{name: "in-sync pull reply", payload: pullReply{}},
		// The peer lacks some of the asker's fingerprints and holds a tombstone
		// the asker never saw.
		{name: "divergent pull reply", payload: pullReply{
			Records:   []Record{{ID: "o2", VV: VersionVector{{Node: "n3", Count: 1}}, Deleted: true}},
			Unmatched: []uint64{0xdeadbeef, 42},
		}},
		{name: "pull reply of records", payload: pullReply{Records: []Record{live}}},
	}
}

// TestWireCodecReplicationPayloads pushes every case through both frame
// bodies, and through a real link whose far end echoes it back: whichever body
// a frame gets, the value arrives and the link stays up.
func TestWireCodecReplicationPayloads(t *testing.T) {
	checkWireCases(t, wireCases())
}

// TestWireCodecExchangePayloads does the same for the repair exchange.
func TestWireCodecExchangePayloads(t *testing.T) {
	checkWireCases(t, exchangeCases())
}

func checkWireCases(t *testing.T, cases []wireCase) {
	t.Helper()
	dir := t.TempDir()
	peers := map[transport.NodeID]string{
		"a": "unix:" + filepath.Join(dir, "a.sock"),
		"b": "unix:" + filepath.Join(dir, "b.sock"),
	}
	wires := map[transport.NodeID]*wiretransport.Wire{}
	for id := range peers {
		w, err := wiretransport.New(id, peers)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		wires[id] = w
	}
	if err := wires["b"].Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := wiretransport.RoundTrip(tc.payload)
			if err != nil {
				t.Fatalf("gob round trip: %v", err)
			}
			// The guard against unexported fields (gob drops them silently) and
			// unregistered concrete types in interface slots.
			if !tc.lossy && !reflect.DeepEqual(want, tc.payload) {
				t.Fatalf("gob round trip:\n sent %#v\n got  %#v", tc.payload, want)
			}
			got, self, err := wiretransport.RoundTripFrame(tc.payload)
			if err != nil {
				t.Fatalf("frame round trip: %v", err)
			}
			if self != tc.self {
				t.Fatalf("self-encoded = %v, want %v", self, tc.self)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the two frame bodies deliver different values:\n gob  %#v\n self %#v", want, got)
			}
			echoed, err := wires["a"].Send(ctx, "a", "b", "echo", tc.payload)
			if err != nil {
				t.Fatalf("over a link: %v", err)
			}
			if !reflect.DeepEqual(echoed, want) {
				t.Fatalf("over a link and back:\n want %#v\n got  %#v", want, echoed)
			}
		})
	}
	if got, ok := wires["a"].Observer().Snapshot().Counters["transport.failures"]; !ok || got != 0 {
		t.Fatalf("failures = %d (registered %t): a payload killed the link", got, ok)
	}
}

// TestBadOpKindCrossesWireToApplyOps pins who rejects a batch with an op kind
// nobody knows: not the codec, which declines it and lets gob carry it, but
// applyOps on the receiving replica, atomically, as on the simulator.
func TestBadOpKindCrossesWireToApplyOps(t *testing.T) {
	h := newHarness(t, 1, PrimaryPerPartition{})
	sent := &batchMsg{Ops: []batchOp{{Kind: opDelete + 1}}}
	got, self, err := wiretransport.RoundTripFrame(sent)
	if err != nil || self {
		t.Fatalf("frame round trip: self-encoded = %v, err = %v", self, err)
	}
	if _, err := h.node("n1").mgr.handleBatch("n2", got); err == nil {
		t.Fatal("a batch with a bad op kind was accepted")
	}
}

// TestUnsortedStateCrossesGobToApplyOps: gob carries an attribute list in
// whatever order its sender wrote, so applyOps on the receiving replica
// rejects a batch with one out of name order, atomically, as the wire
// decoder rejects its frame.
func TestUnsortedStateCrossesGobToApplyOps(t *testing.T) {
	h := newHarness(t, 1, PrimaryPerPartition{})
	h.create(t, "n1", "Flight", "f1", object.State{"sold": int64(1)})
	vv, _ := h.node("n1").mgr.VersionVector("f1")
	unsorted := object.Attrs{{Name: "sold", Value: int64(2)}, {Name: "seats", Value: int64(80)}}
	got, err := wiretransport.RoundTrip(&batchMsg{Ops: []batchOp{{Kind: opApply, ID: "f1", State: unsorted, Version: 2, VV: vv.Bumped("n2")}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.node("n1").mgr.handleBatch("n2", got); err == nil {
		t.Fatal("a batch with attributes out of name order was accepted")
	}
	if e := h.entityOf(t, "n1", "f1"); e.GetInt("sold") != 1 || e.Version() != 1 {
		t.Fatalf("the rejected batch changed the replica: %v v%d", e.Snapshot(), e.Version())
	}
}

// TestBatchWireGolden pins the layout of the self-encoded forms: op count;
// per op a kind byte, the ID, the state (count+1, then name, value kind and
// value in byte order of the names), the version as a signed varint, the
// vector (count+1, then node ID and counter in byte order), and for a create
// the class, home and replica list; strings as length and bytes.
func TestBatchWireGolden(t *testing.T) {
	batch := &batchMsg{Ops: []batchOp{
		{Kind: opCreate, ID: "o1", Class: "C", State: object.AttrsOf(object.State{"n": int64(-2), "b": true, "a": "x"}), Version: 3,
			VV: VersionVector{{Node: "n1", Count: 2}, {Node: "n2", Count: 1}}, Info: NewInfo("n1", []transport.NodeID{"n2", "n1"})},
		{Kind: opApply, ID: "o1", State: object.AttrsOf(object.State{"f": 1.5, "r": []object.ID{"o2"}}), Version: 4, VV: VersionVector{{Node: "n1", Count: 3}}},
		{Kind: opDelete, ID: "o1"},
	}}
	const want = "03" + // three ops
		"01" + "026f31" + // create o1
		"04" + "0161" + "03" + "0178" + "0162" + "02" + "016e" + "05" + "03" + // a="x" b=true n=int64(-2)
		"06" + // version 3
		"03" + "026e31" + "04" + "026e32" + "02" + // n1:2 n2:1
		"0143" + "026e31" + "02" + "026e31" + "026e32" + // class C, home n1, replicas n1 n2
		"02" + "026f31" + // apply o1
		"03" + "0166" + "06" + "3ff8000000000000" + "0172" + "08" + "01" + "026f32" + // f=1.5 r=[o2]
		"08" + // version 4
		"02" + "026e31" + "06" + // n1:3
		"03" + "026f31" + "00" // delete o1, nil vector
	got, ok := batch.AppendWire(nil)
	if !ok || hex.EncodeToString(got) != want {
		t.Fatalf("batch wire form (accepted %v):\n got  %x\n want %s", ok, got, want)
	}
	for _, tc := range []struct {
		ack  *batchAck
		want string
	}{
		{ackAll, "00"}, // every op landed
		{&batchAck{Results: []opResult{opApplied, opUnknown, opDuplicate, opConcurrent}}, "04" + "00" + "03" + "01" + "02"},
	} {
		if got, ok := tc.ack.AppendWire(nil); !ok || hex.EncodeToString(got) != tc.want {
			t.Errorf("ack wire form of %v (accepted %v) = %x, want %s", tc.ack.Results, ok, got, tc.want)
		}
	}
}

// everyResult is a 200-op ack that lists every code, several times over.
var everyResult = func() []opResult {
	res := make([]opResult, 200)
	for i := range res {
		res[i] = opResult(i) % numOpResults
	}
	return res
}()

// malformedAckFrames are repl.ack bodies the decoder must reject.
func malformedAckFrames() map[string]string {
	return map[string]string{
		"count beyond the bytes": "05" + "00" + "01",
		"code that is none":      "02" + "00" + "04",
		"last code is none":      "01" + "ff",
		"truncated count":        "80",
		"huge count":             "ffffffffffffffffff01",
	}
}

// FuzzDecodeAck feeds arbitrary bytes to the ack decoder, seeded with the
// table's encodings and the malformed frames. It must fail the reader or
// return — never panic — every code it accepts must be one, the all-landed
// form must decode to ackAll itself, and whatever it accepts must be a fixed
// point: it re-encodes (never declining) to bytes that decode to the same ack
// and encode to the same bytes.
func FuzzDecodeAck(f *testing.F) {
	for _, tc := range wireCases() {
		if a, ok := tc.payload.(*batchAck); ok && tc.self {
			data, _ := a.AppendWire(nil)
			f.Add(data)
		}
	}
	for _, frame := range malformedAckFrames() {
		data, _ := hex.DecodeString(frame)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r transport.WireReader
		r.Reset(data)
		got := readAckWire(&r)
		if r.Err() != nil {
			return
		}
		ack := got.(*batchAck)
		for _, c := range ack.Results {
			if c >= numOpResults {
				t.Fatalf("accepted code %d", c)
			}
		}
		if len(ack.Results) == 0 && ack != ackAll {
			t.Fatalf("the all-landed form decoded to %p, not ackAll", ack)
		}
		again, ok := ack.AppendWire(nil)
		if !ok {
			t.Fatalf("decoded ack %v declines to encode", ack.Results)
		}
		r.Reset(again)
		back := readAckWire(&r)
		if r.Err() != nil || r.Len() != 0 || !reflect.DeepEqual(back, got) {
			t.Fatalf("re-encoded ack decodes to %#v, %v, %d bytes left", back, r.Err(), r.Len())
		}
		if final, _ := back.(*batchAck).AppendWire(nil); !bytes.Equal(final, again) {
			t.Fatalf("not a fixed point:\n first  %x\n second %x", again, final)
		}
	})
}

// TestDecodeRejectsMalformedAck: a count the input cannot hold, or a code
// that is none, fails the reader.
func TestDecodeRejectsMalformedAck(t *testing.T) {
	for name, frame := range malformedAckFrames() {
		data, _ := hex.DecodeString(frame)
		var r transport.WireReader
		r.Reset(data)
		if got := readAckWire(&r); r.Err() == nil {
			t.Errorf("%s: decoded %#v", name, got)
		}
	}
}

// malformedVectorFrames are repl.batch frames whose one op, a delete, carries
// a vector that is not one: a node twice, and two nodes in descending order.
func malformedVectorFrames() map[string][]byte {
	frame := func(vector string) []byte {
		data, _ := hex.DecodeString("01" + "03" + "026f31" + vector) // one op: delete o1
		return data
	}
	return map[string][]byte{
		"repeated node":   frame("03" + "026e31" + "02" + "026e31" + "04"), // n1:1 n1:2
		"descending node": frame("03" + "026e32" + "02" + "026e31" + "02"), // n2:1 n1:1
	}
}

// TestDecodeRejectsMalformedVector: a vector whose nodes do not strictly
// ascend fails the reader. It is not a vector: every walk over two vectors
// assumes one component per node, in order.
func TestDecodeRejectsMalformedVector(t *testing.T) {
	for name, data := range malformedVectorFrames() {
		var r transport.WireReader
		r.Reset(data)
		if got := readBatchWire(&r); r.Err() == nil {
			t.Errorf("%s: decoded %#v", name, got)
		}
	}
}

// malformedStateFrames are repl.batch frames whose one op, an apply, carries
// an attribute list that is not one: a name twice, and two names in
// descending order. The map decoder kept the last of two duplicates.
func malformedStateFrames() map[string][]byte {
	frame := func(state string) []byte {
		data, _ := hex.DecodeString("01" + "02" + "026f31" + state + "02" + "00") // one op: apply o1 at version 1, nil vector
		return data
	}
	return map[string][]byte{
		"repeated attribute":   frame("03" + "0161" + "04" + "02" + "0161" + "04" + "04"), // a=int(1) a=int(2)
		"descending attribute": frame("03" + "0162" + "00" + "0161" + "00"),               // b=nil a=nil
	}
}

// TestDecodeRejectsMalformedState: an attribute list whose names do not
// strictly ascend fails the reader. It is no attribute list: every lookup in
// one assumes one attribute per name, in order.
func TestDecodeRejectsMalformedState(t *testing.T) {
	for name, data := range malformedStateFrames() {
		var r transport.WireReader
		r.Reset(data)
		if got := readBatchWire(&r); r.Err() == nil {
			t.Errorf("%s: decoded %#v", name, got)
		}
	}
}

// TestBatchSizes holds the sizes every replicated write pays for, each
// against the allocator's size class it fills: the op, 136 bytes with its
// 24-byte attribute list, which every size below carries once; the commit's
// round, 248 bytes within the 288-byte class (a reused round keeps its
// destinations' array, so it carries no room for them); a one-op commit's
// round with its op, 384 bytes within the 448-byte class; the one-op
// batch a frame decodes to, in the 160-byte class; a staged op, in the
// 176-byte class the commit's pooled buffer holds per op; and the batch a
// frame decodes to, which one field more moves from 24 bytes into 32. A
// commit's threats ride in a threatBatch of their own, behind one pointer on
// the round.
func TestBatchSizes(t *testing.T) {
	for _, c := range []struct {
		name       string
		size, most uintptr
	}{
		{"batchOp", unsafe.Sizeof(batchOp{}), 136},
		{"commitRound", unsafe.Sizeof(commitRound{}), 288},
		{"oneOpRound", unsafe.Sizeof(oneOpRound{}), 448},
		{"oneOpBatch", unsafe.Sizeof(oneOpBatch{}), 160},
		{"stagedOp", unsafe.Sizeof(stagedOp{}), 176},
	} {
		if c.size > c.most {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.size, c.most)
		}
	}
	if size := unsafe.Sizeof(batchMsg{}); size != 24 {
		t.Errorf("batchMsg is %d bytes, want 24", size)
	}
}

// FuzzDecodeBatch feeds arbitrary bytes to the batch decoder, seeded with the
// table's encodings, stored replica records and a history entry (each one
// op's form), and the malformed vectors and states. It must fail the reader
// or return — never panic — every vector and every attribute list it accepts
// must strictly ascend, and whatever it accepts must be a fixed point: it re-encodes (never declining)
// to bytes that decode to the same batch. The comparison is on the canonical
// bytes, not DeepEqual, because a NaN attribute is not equal to itself.
func FuzzDecodeBatch(f *testing.F) {
	for _, tc := range wireCases() {
		if b, ok := tc.payload.(*batchMsg); ok && tc.self {
			data, _ := b.AppendWire(nil)
			f.Add(data)
		}
	}
	for _, data := range malformedVectorFrames() {
		f.Add(data)
	}
	for _, data := range malformedStateFrames() {
		f.Add(data)
	}
	// A stored record is one op's form: behind an op count of one it is a
	// batch of a create (a metadata-only holder's with no class and no
	// state), or of a history entry's update.
	var mu sync.Mutex
	for _, rec := range recordCases() {
		data, _ := entryOf(&mu, rec).AppendWire([]byte{1})
		f.Add(data)
	}
	data, _ := historyEntry().AppendWire([]byte{1})
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		var r transport.WireReader
		r.Reset(data)
		got := readBatchWire(&r)
		if r.Err() != nil {
			return
		}
		for _, op := range got.(*batchMsg).Ops {
			if !wellFormed(op.VV) {
				t.Fatalf("accepted vector %v does not strictly ascend", op.VV)
			}
			for i := 1; i < len(op.State); i++ {
				if op.State[i-1].Name >= op.State[i].Name {
					t.Fatalf("accepted attribute %q after %q", op.State[i].Name, op.State[i-1].Name)
				}
			}
		}
		again, ok := got.(*batchMsg).AppendWire(nil)
		if !ok {
			t.Fatalf("decoded batch %#v declines to encode", got)
		}
		r.Reset(again)
		back := readBatchWire(&r)
		if r.Err() != nil || r.Len() != 0 {
			t.Fatalf("re-encoded batch does not decode: %v, %d bytes left", r.Err(), r.Len())
		}
		if final, _ := back.(*batchMsg).AppendWire(nil); !bytes.Equal(final, again) {
			t.Fatalf("not a fixed point:\n first  %x\n second %x", again, final)
		}
	})
}

// FuzzDecodeCoalesced feeds arbitrary bytes to the decoder registered for
// the coalesced batch's wire tag, seeded with the table's coalesced encodings
// and those same encodings cut short. It must fail the reader or return —
// never panic — every part it accepts must be a batch whose vectors strictly
// ascend, and whatever it accepts must be a fixed point: it re-encodes (never
// declining) to bytes that decode to the same parts and encode to the same
// bytes.
func FuzzDecodeCoalesced(f *testing.F) {
	decode := transport.WireDecoderFor((*coalescedBatch)(nil).WireTag())
	for _, tc := range wireCases() {
		if c, ok := tc.payload.(*coalescedBatch); ok && tc.self {
			data, _ := c.AppendWire(nil)
			f.Add(data)
			f.Add(data[:len(data)/2])
		}
	}
	for _, data := range malformedVectorFrames() {
		f.Add(append([]byte{1}, data...)) // one part: the batch with the bad vector
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r transport.WireReader
		r.Reset(data)
		got := decode(&r)
		if r.Err() != nil {
			return
		}
		c := got.(*coalescedBatch)
		for _, p := range c.Parts {
			if p == nil {
				t.Fatal("accepted a nil part")
			}
			for _, op := range p.Ops {
				if !wellFormed(op.VV) {
					t.Fatalf("accepted vector %v does not strictly ascend", op.VV)
				}
			}
		}
		again, ok := c.AppendWire(nil)
		if !ok {
			t.Fatalf("decoded batch %#v declines to encode", c)
		}
		r.Reset(again)
		back := decode(&r)
		if r.Err() != nil || r.Len() != 0 || len(back.(*coalescedBatch).Parts) != len(c.Parts) {
			t.Fatalf("re-encoded batch does not decode to its parts: %v, %d bytes left", r.Err(), r.Len())
		}
		if final, _ := back.(*coalescedBatch).AppendWire(nil); !bytes.Equal(final, again) {
			t.Fatalf("not a fixed point:\n first  %x\n second %x", again, final)
		}
	})
}

// FuzzPullExchange feeds arbitrary bytes through gob into the repair
// exchange's two messages, seeded with the gob encodings of its codec cases.
// A request that decodes is answered by handlePull, and a reply that decodes
// is merged by a ReconcileWith against a peer that returns it: neither may
// panic, whatever the fingerprints, records and vectors say. n1, which
// answers and runs the pass, holds a live replica and a tombstone, so both
// walks have entries of their own.
func FuzzPullExchange(f *testing.F) {
	for _, tc := range exchangeCases() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tc.payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newHarness(t, 2, PrimaryPerPartition{})
		h.create(t, "n1", "Reg", "o1", object.State{"value": int64(1)})
		h.create(t, "n1", "Reg", "o2", object.State{"value": int64(2)})
		n1 := h.node("n1")
		txn := n1.txm.Begin()
		if err := n1.mgr.Delete(txn, "o2"); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}

		var req pullMsg
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&req) == nil {
			if _, err := n1.mgr.handlePull("n2", req); err != nil {
				t.Fatalf("handlePull: %v", err)
			}
		}
		var reply pullReply
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&reply) == nil {
			if err := h.net.Handle("n2", msgPull, func(transport.NodeID, any) (any, error) { return reply, nil }); err != nil {
				t.Fatal(err)
			}
			_, _ = n1.mgr.ReconcileWith(context.Background(), []transport.NodeID{"n2"}, nil)
		}
	})
}

// TestDecodedBatchIsReusedAfterItsHandler sends creates over a real link to a
// replica, one batch at a time on one core, until a decode reuses the memory
// of a batch the replica handled and the wire released. Every replica the
// batches created — the first's included — still holds the state, vector and
// placement its create carried: the replica keeps those, and the release and
// the next decode write none of them.
func TestDecodedBatchIsReusedAfterItsHandler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a free list is per core
	dir := t.TempDir()
	peers := map[transport.NodeID]string{
		"a": "unix:" + filepath.Join(dir, "a.sock"),
		"b": "unix:" + filepath.Join(dir, "b.sock"),
	}
	wires := map[transport.NodeID]*wiretransport.Wire{}
	for id := range peers {
		w, err := wiretransport.New(id, peers)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		wires[id] = w
	}
	m, err := NewManager(Config{Self: "b", Net: wires["b"], GMS: group.NewMembership(wires["b"]), Registry: object.NewRegistry(), Store: persistence.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	handled := map[*batchMsg]bool{} // the batches the handler saw
	reused := false
	if err := wires["b"].Handle("b", msgBatch, func(from transport.NodeID, p any) (any, error) {
		mu.Lock()
		reused = reused || handled[p.(*batchMsg)]
		handled[p.(*batchMsg)] = true
		mu.Unlock()
		return m.handleBatch(from, p)
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info := NewInfo("a", []transport.NodeID{"a", "b"})
	id := func(k int) object.ID { return object.ID(fmt.Sprintf("flight-%04d", k)) }
	sent := 0
	for done := false; sent < 200 && !done; sent++ {
		op := batchOp{Kind: opCreate, ID: id(sent), Class: "Flight", State: object.AttrsOf(object.State{"sold": int64(sent)}), Version: 1, VV: VersionVector{{Node: "a", Count: int64(sent + 1)}}, Info: info}
		if _, err := wires["a"].Send(ctx, "a", "b", msgBatch, &batchMsg{Ops: []batchOp{op}}); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		done = reused
		mu.Unlock()
	}
	if sent == 200 {
		t.Fatalf("%d decoded batches, none reused a released one", sent)
	}
	t.Logf("batch %d reused a released one", sent)
	for k := 0; k < sent; k++ {
		e, err := m.registry.Get(id(k))
		if err != nil {
			t.Fatalf("create %d: %v", k, err)
		}
		vv, _ := m.VersionVector(id(k))
		got, _ := m.Info(id(k))
		if e.GetInt("sold") != int64(k) || !reflect.DeepEqual(vv, VersionVector{{Node: "a", Count: int64(k + 1)}}) || !reflect.DeepEqual(got, info) {
			t.Fatalf("create %d of %d: the replica holds sold=%d, %v, %v", k, sent, e.GetInt("sold"), vv, got)
		}
	}
}
