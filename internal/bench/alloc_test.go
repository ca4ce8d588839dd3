package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"go/version"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/group"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/persistence"
	"dedisys/internal/replication"
	"dedisys/internal/simtime"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

// ledgerFile is the allocation ledger's table, checked in at the module root.
const ledgerFile = "../../BENCH_allocs.json"

// ledgerTable is what one operation of each path allocates, by site: the
// innermost function of this module on the allocation's stack. A row holds
// the path's allocations and bytes per operation and its allocations by
// site; the bytes are the size classes the profile saw, so a value that
// grows into the next class moves them although no count moves.
type ledgerTable struct {
	Go    string               `json:"go"` // the language version it was recorded on
	Paths map[string]ledgerRow `json:"paths"`
}

type ledgerRow struct {
	Total float64            `json:"total"`
	Bytes float64            `json:"bytes"`
	Sites map[string]float64 `json:"sites"`
}

// The quorum cluster of the sharded benchmark workloads — 8 nodes, 4 groups,
// replication factor 3 — and partition-heal's 4-node full replication, whose
// P4 write waits for every replica.
var (
	quorumCluster = clusterOpts{size: 8, groups: 4, rf: 3, protocol: replication.Quorum{}}
	p4Cluster     = clusterOpts{size: 4, protocol: replication.PrimaryPerPartition{}}
)

// ledgerPaths are the measured paths: how many operations a window runs, and
// what builds one operation.
var ledgerPaths = []struct {
	name  string
	n     int
	setup func(t *testing.T) func(i int) error
}{
	{"invoke", 1000, func(t *testing.T) func(int) error { return newWriter(t, clusterOpts{size: 1}, nil).read }},
	{"commit", 1000, func(t *testing.T) func(int) error { return newWriter(t, clusterOpts{size: 1}, nil).write }},
	{"quorum-write", 1000, func(t *testing.T) func(int) error { return newWriter(t, quorumCluster, nil).write }},
	{"p4-write", 1000, func(t *testing.T) func(int) error { return newWriter(t, p4Cluster, nil).write }},
	{"tx4", 1000, newTx4},
	{"p4-degraded-write", 1000, newDegradedWrite},
	{"validated-write/called-object", 1000, func(t *testing.T) func(int) error {
		return newWriter(t, clusterOpts{size: 1}, constraint.CalledObjectIsContext{}).write
	}},
	{"validated-write/local-reference", 1000, func(t *testing.T) func(int) error {
		return newWriter(t, clusterOpts{size: 1}, constraint.ReferenceIsContext{Attr: "report"}).write
	}},
	// Its warm-up carries the link's request ids past 127, where their varint,
	// and with it every frame, grows a byte: the reader's buffer grows once.
	{"wire-send", 200, newWireSend},
	{"batch-decode", 1000, newBatchDecode},
	{"ack", 1000, newAckRoundTrip},
	{"store-put", 1000, newStorePut},
	{"store-write", 1000, newStoreWrite},
	{"threshold-round/engine", 1000, func(t *testing.T) func(int) error { return newThresholdRound(t).engine }},
	{"threshold-round/adapter", 1000, func(t *testing.T) func(int) error { return newThresholdRound(t).adapter }},
	{"charge-ctx", 10, func(*testing.T) func(int) error { return chargeHop }},
	{"vector-merge", 1000, func(*testing.T) func(int) error { return growingMerge }},
}

// TestAllocLedger holds every path's allocations to the table in
// BENCH_allocs.json, site by site. A site the table lacks fails with its
// file:line, a count that moved fails, a site that no longer allocates fails
// until the table drops it, and so do bytes per operation that moved. The profile does not see an object the tiny
// allocator packs into a block it already has, so a path also fails on every
// such allocation MemStats counts. When BENCH_ALLOCS_JSON names a file, the
// measured table is written there: name BENCH_allocs.json itself to re-record
// it. The counts are the toolchain's, not the host's; on another language
// version than the table's the differences are logged and the test skips.
// Skipped under -race, whose runtime allocates on paths the production build
// does not.
func TestAllocLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on paths the production build does not")
	}
	var want ledgerTable
	data, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", ledgerFile, err)
	}
	got := ledgerTable{Go: version.Lang(runtime.Version()), Paths: map[string]ledgerRow{}}
	foreign := got.Go != want.Go

	// One P from before the first warm-up: a sync.Pool filled on another P
	// would refill inside a window. No collection but the ledger's own: one
	// inside a window would empty the pools.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	for _, p := range ledgerPaths {
		t.Run(p.name, func(t *testing.T) {
			op := p.setup(t)
			for i := 0; i < p.n; i++ { // a warm-up as long as the first window
				if err := op(i); err != nil {
					t.Fatal(err)
				}
			}
			sites, residual, err := measureSites(p.n, op)
			if err != nil {
				t.Fatal(err)
			}
			row := ledgerRow{Sites: map[string]float64{}}
			for key, s := range sites {
				row.Sites[key] = s.perOp
				row.Total += s.perOp
				row.Bytes += s.bytesPerOp
			}
			got.Paths[p.name] = row
			diffs := ledgerDiff(want.Paths[p.name], row.Bytes, sites)
			if residual != 0 {
				diffs = append(diffs, fmt.Sprintf("%g allocations/op the profile cannot see: tiny objects packed into one block", residual))
			}
			t.Logf("%g allocs/op, %g B/op", row.Total, row.Bytes)
			for _, d := range diffs {
				if foreign {
					t.Log(d)
				} else {
					t.Error(d)
				}
			}
			if foreign {
				t.Skipf("the table is %s's, this is %s", want.Go, got.Go)
			}
		})
	}

	if path := os.Getenv("BENCH_ALLOCS_JSON"); path != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if foreign {
		t.Skipf("the table is %s's, this is %s", want.Go, got.Go)
	}
}

// ledgerDiff lists how measured sites and bytes differ from a path's table
// row.
func ledgerDiff(want ledgerRow, bytes float64, got map[string]site) []string {
	var diffs []string
	if bytes != want.Bytes {
		var by []string
		for key, s := range got {
			by = append(by, fmt.Sprintf("%s %g", key, s.bytesPerOp))
		}
		sort.Strings(by)
		diffs = append(diffs, fmt.Sprintf("%g B/op, the table says %g (by site: %s)", bytes, want.Bytes, strings.Join(by, ", ")))
	}
	for key, s := range got {
		switch w, ok := want.Sites[key]; {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("new site %s (%s): %g/op", key, s.where, s.perOp))
		case w != s.perOp:
			diffs = append(diffs, fmt.Sprintf("%s: %g/op, the table says %g", key, s.perOp, w))
		}
	}
	for key, w := range want.Sites {
		if _, ok := got[key]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s no longer allocates (the table says %g/op): shrink the table", key, w))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// site is one allocating function: its allocations and their bytes in the
// second window less the first, per operation, and where one of them is made.
type site struct {
	count, bytes      int64
	perOp, bytesPerOp float64
	where             string
}

// measureSites runs op in two windows, n operations and then 2n, each closed
// by a collection that publishes the heap profile, and returns what the second
// window allocated beyond the first, per operation: by site, and the
// allocations the profile cannot see. What a window pays once — a sync.Pool
// re-registering after the collection that opened it — cancels out.
//
// The profile's blind spot is the tiny allocator: a pointer-free object under
// 16 bytes that fits the block the allocator already has is never profiled,
// and MemStats counts it in Mallocs but in none of its size classes. Those
// are read from the same MemStats as the windows' Mallocs; a straight
// comparison of Mallocs with the sites would also count, at random, the
// runtime's own allocations that land between a window and its collection.
func measureSites(n int, op func(i int) error) (map[string]site, float64, error) {
	var (
		unseen   [2]uint64
		profiles [3][]runtime.MemProfileRecord
		ms       runtime.MemStats
	)
	// Mallocs outside every size class: tiny objects packed into a block (and
	// objects over 32 KB, which no path makes).
	packed := func() uint64 {
		runtime.ReadMemStats(&ms)
		k := ms.Mallocs
		for _, c := range ms.BySize {
			k -= c.Mallocs
		}
		return k
	}
	// Room for every bucket the profile has and as many new ones, allocated
	// before the first collection so that reading the profile allocates nothing.
	room, _ := runtime.MemProfile(nil, true)
	for i := range profiles {
		profiles[i] = make([]runtime.MemProfileRecord, 2*room)
	}
	read := func(i int) bool {
		runtime.GC()
		k, ok := runtime.MemProfile(profiles[i], true)
		profiles[i] = profiles[i][:k]
		return ok
	}
	if !read(0) {
		return nil, 0, fmt.Errorf("the heap profile outgrew %d records", 2*room)
	}
	next := 0
	for w, ops := range []int{n, 2 * n} {
		start := packed()
		for end := next + ops; next < end; next++ {
			if err := op(next); err != nil {
				return nil, 0, err
			}
		}
		unseen[w] = packed() - start
		if !read(w + 1) {
			return nil, 0, fmt.Errorf("the heap profile outgrew %d records", 2*room)
		}
	}

	// Per stack, the second window less the first: p2 - p1 - (p1 - p0).
	type objects struct{ count, bytes int64 }
	net := map[[32]uintptr]objects{}
	for i, weight := range []int64{1, -2, 1} {
		for _, r := range profiles[i] {
			o := net[r.Stack0]
			o.count += weight * r.AllocObjects
			o.bytes += weight * r.AllocBytes
			net[r.Stack0] = o
		}
	}
	sites := map[string]site{}
	for stack, o := range net {
		if o.count == 0 {
			continue
		}
		if key, where := siteOf(stack[:]); key != "" {
			s := sites[key]
			s.count += o.count
			s.bytes += o.bytes
			if s.where == "" {
				s.where = where
			}
			sites[key] = s
		}
	}
	for key, s := range sites {
		s.perOp = float64(s.count) / float64(n)
		s.bytesPerOp = float64(s.bytes) / float64(n)
		sites[key] = s
	}
	return sites, float64(int64(unseen[1]-unseen[0])) / float64(n), nil
}

// siteOf names an allocation by the innermost function of this module on its
// stack, without the dedisys/internal/ prefix, and gives the file:line it
// allocates at. The runtime's own allocations are no site and get no name:
// those of a goroutine that never ran this module's code, and a type
// assertion's or type switch's cache, which the runtime grows on one miss in
// 1024 at random.
func siteOf(stack []uintptr) (key, where string) {
	frames := runtime.CallersFrames(stack)
	for first := true; ; first = false {
		f, more := frames.Next()
		if first && (f.Function == "runtime.typeAssert" || f.Function == "runtime.interfaceSwitch") {
			return "", ""
		}
		if strings.HasPrefix(f.Function, "dedisys/") {
			return strings.TrimPrefix(f.Function, "dedisys/internal/"), fmt.Sprintf("%s:%d", f.File, f.Line)
		}
		if !more {
			return "", ""
		}
	}
}

// writer drives one bean through Node.Invoke at its home node.
type writer struct {
	c   *node.Cluster
	n   *node.Node
	oid object.ID
}

func (w writer) read(int) error {
	_, err := w.n.Invoke(w.oid, "Value")
	return err
}

// write joins a quorum commit's straggler send, so all of one write's
// allocations land with it. Its argument stays below 256, which Go boxes
// without allocating: the driver's own box is not the middleware's.
func (w writer) write(i int) error {
	_, err := w.n.Invoke(w.oid, "SetValue", int64(i&0xff))
	w.n.Repl.WaitPropagation()
	return err
}

// newWriter builds a cluster of the given shape with the CCM and replication
// on, simulated costs zeroed. With a preparer, SetValue is validated against a
// hard invariant whose context object it names; the local reference names a
// second bean on the same node.
func newWriter(t *testing.T, shape clusterOpts, prep constraint.ContextPreparer) writer {
	cfg := QuickConfig()
	cfg.NetCost, cfg.StoreCost = 0, 0
	c, err := newBenchCluster(cfg, shape, constraint.AsyncInvariant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	w := writer{c: c, oid: "hot000"}
	w.n = shardHome(c, w.oid)
	state := object.State{"value": int64(0)}
	if prep != nil {
		if _, ok := prep.(constraint.ReferenceIsContext); ok {
			state["report"] = object.ID("hot001")
			if err := w.n.Create(beanClass, "hot001", object.State{"value": int64(0)}, c.AllReplicas(w.n.ID)); err != nil {
				t.Fatal(err)
			}
		}
		err := w.n.DeployConstraints([]constraint.Configured{{
			Meta: constraint.Meta{
				Name: "Ledger", Type: constraint.HardInvariant,
				Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
				NeedsContext: true, ContextClass: beanClass,
				Affected:     []constraint.AffectedMethod{{Class: beanClass, Method: "SetValue", Prep: prep}},
				SkipOnCreate: true,
			},
			Impl: constraint.Func(func(ctx constraint.Context) (bool, error) { return ctx.ContextObject() != nil, nil }),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.n.Create(beanClass, w.oid, state, c.AllReplicas(w.n.ID)); err != nil {
		t.Fatal(err)
	}
	return w
}

// newTx4 is sim-write's four-object write: an explicit transaction (BeginCtx)
// that sets four beans their home coordinates, one InvokeTx each, and commits,
// its straggler sends joined.
func newTx4(t *testing.T) func(int) error {
	cfg := QuickConfig()
	cfg.NetCost, cfg.StoreCost = 0, 0
	c, err := newBenchCluster(cfg, quorumCluster, constraint.AsyncInvariant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	n := shardHome(c, "hot000")
	var ids []object.ID
	for i := 0; len(ids) < 4; i++ {
		if id := beanID(i); shardHome(c, id) == n {
			if err := n.Create(beanClass, id, object.State{"value": int64(0)}, c.AllReplicas(n.ID)); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	return func(i int) error {
		txn := n.BeginCtx(context.Background())
		for _, id := range ids {
			if _, err := n.InvokeTx(txn, id, "SetValue", int64(i&0xff)); err != nil {
				_ = txn.Rollback()
				return err
			}
		}
		err := txn.Commit()
		n.Repl.WaitPropagation()
		return err
	}
}

// newDegradedWrite is a P4 write at n1 while the cluster is split {n1,n2} |
// {n3,n4}, validated against a tradeable hard invariant on the written bean:
// the bean is possibly stale, so every write is a threat. The warm-up's first
// write stores it; every measured one folds into it.
func newDegradedWrite(t *testing.T) func(int) error {
	w := newWriter(t, p4Cluster, constraint.CalledObjectIsContext{})
	ids := w.c.IDs()
	w.c.Partition(ids[:2], ids[2:])
	return w.write
}

// recordedBatch returns the repl.batch a single-object write ships, captured
// on its way to one replica of a simulated three-node cluster, and the ack the
// other replica's handler gives it. The batch is the sender's, which reuses it
// once its sends are answered, so the handler keeps a copy. The object's ID is
// 16 bytes or longer, so its decoded copy is no tiny allocation and the
// profile sees it.
func recordedBatch(t *testing.T) (batch, ack any) {
	c, err := newBenchCluster(QuickConfig(), clusterOpts{size: 3, disableCCM: true}, constraint.HardInvariant)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ids := c.IDs()
	err = c.Net.Handle(ids[2], "repl.batch", func(_ transport.NodeID, p any) (any, error) {
		var err error
		batch, err = wiretransport.RoundTrip(p)
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Node(0)
	const oid = object.ID("recorded-write-00")
	if err := n.Create(beanClass, oid, object.State{"value": int64(0)}, replication.Info{Home: n.ID, Replicas: ids}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Invoke(oid, "SetValue", int64(1)); err != nil {
		t.Fatal(err)
	}
	n.Repl.WaitPropagation() // the batch is captured once this returns
	if ack, err = c.Net.Send(context.Background(), ids[0], ids[1], "repl.batch", batch); err != nil {
		t.Fatal(err)
	}
	return batch, ack
}

// newWireSend sends the recorded repl.batch over a unix-socket pair whose far
// end answers with the recorded ack, as handleBatch does.
func newWireSend(t *testing.T) func(int) error {
	batch, ack := recordedBatch(t)
	dir := t.TempDir()
	peers := map[transport.NodeID]string{
		"a": "unix:" + filepath.Join(dir, "a.sock"),
		"b": "unix:" + filepath.Join(dir, "b.sock"),
	}
	var wires []*wiretransport.Wire
	for _, id := range []transport.NodeID{"a", "b"} {
		w, err := wiretransport.New(id, peers)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		wires = append(wires, w)
	}
	if err := wires[1].Handle("b", "echo", func(transport.NodeID, any) (any, error) { return ack, nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return func(int) error {
		_, err := wires[0].Send(ctx, "a", "b", "echo", batch)
		return err
	}
}

// selfEncoded writes p's own wire form and returns it with the decoder
// registered for its tag.
func selfEncoded(t *testing.T, p any) ([]byte, transport.WireDecoder) {
	wp, ok := p.(transport.WirePayload)
	if !ok {
		t.Fatalf("%T does not encode itself", p)
	}
	data, ok := wp.AppendWire(nil)
	if !ok {
		t.Fatalf("%T declined its own wire form", p)
	}
	return data, transport.WireDecoderFor(wp.WireTag())
}

// newBatchDecode decodes the recorded repl.batch from its wire form and
// releases it, as the receiving end of a wire send does once the handler
// returned; a decode that differs from the batch sent fails before the path is
// measured.
func newBatchDecode(t *testing.T) func(int) error {
	batch, _ := recordedBatch(t)
	data, dec := selfEncoded(t, batch)
	var r transport.WireReader
	r.Reset(data)
	if got := dec(&r); r.Err() != nil || !reflect.DeepEqual(got, batch) {
		t.Fatalf("decoded %#v, %v; want %#v", got, r.Err(), batch)
	}
	return func(int) error {
		r.Reset(data)
		got := dec(&r)
		if err := r.Err(); err != nil {
			return err
		}
		got.(transport.Releaser).Release()
		return nil
	}
}

// newAckRoundTrip encodes the recorded all-landed ack into a reused buffer and
// decodes it, which must give back the shared value handleBatch replied with.
func newAckRoundTrip(t *testing.T) func(int) error {
	_, ack := recordedBatch(t)
	wp := ack.(transport.WirePayload)
	buf, dec := selfEncoded(t, ack)
	var r transport.WireReader
	return func(int) error {
		data, _ := wp.AppendWire(buf[:0])
		r.Reset(data)
		if got := dec(&r); got != ack {
			return fmt.Errorf("the all-landed ack decoded to %#v, %v", got, r.Err())
		}
		return nil
	}
}

// newStorePut rewrites live keys with the records production stores, each
// encoding itself: an entity (CMP's record), a state (as the benchmark's
// probe puts it) and an attribute list.
func newStorePut(t *testing.T) func(int) error {
	store := persistence.NewStore()
	changes := storedRecords()
	return func(int) error {
		for _, c := range changes {
			if err := store.Put("t", c.Key, c.Value); err != nil {
				return err
			}
		}
		return nil
	}
}

// newStoreWrite writes the same live records in one store write, as a replica
// stores a multi-object commit: the encoding buffer and every key's buffer
// are the store's own and keep what they grew, so it allocates nothing.
func newStoreWrite(t *testing.T) func(int) error {
	store := persistence.NewStore()
	changes := storedRecords()
	return func(int) error { return store.Write(changes) }
}

// storedRecords are the records of the store rows: an entity, a state and an
// attribute list, each boxed once here, as a production write's are before
// the write.
func storedRecords() []persistence.Change {
	e := object.New(beanClass, "hot000", object.State{"value": int64(42), "owner": object.ID("acct-1"), "tag": "plain"})
	attrs, _ := e.Share()
	return []persistence.Change{{Table: "t", Key: "entity", Value: e}, {Table: "t", Key: "state", Value: e.Snapshot()}, {Table: "t", Key: "attrs", Value: attrs}}
}

// thresholdRound multicasts to two echo peers, released at the first ack,
// the straggler joined.
type thresholdRound struct {
	comm  *group.Comm
	dests []transport.NodeID
}

func newThresholdRound(t *testing.T) thresholdRound {
	net := transport.NewNetwork()
	for _, id := range []transport.NodeID{"n1", "n2", "n3"} {
		if err := net.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	r := thresholdRound{comm: group.NewComm(net), dests: []transport.NodeID{"n2", "n3"}}
	for _, id := range r.dests {
		if err := net.Handle(id, "update", func(transport.NodeID, any) (any, error) { return "ack", nil }); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// ackCounter is the smallest owner a round can have: one payload for
// everybody, a count of acks.
type ackCounter struct {
	group.Round
	need, acked int
}

func (a *ackCounter) Payload(int) any { return "state" }

func (a *ackCounter) Answered(_ int, _ any, err error) group.Verdict {
	if err == nil {
		a.acked++
	}
	if a.acked >= a.need {
		return group.Satisfied
	}
	return group.Open
}

func (a *ackCounter) Drained() {}

func (r thresholdRound) engine(int) error {
	a := &ackCounter{need: 1}
	a.From, a.To, a.Kind, a.Until = "n1", r.dests, "update", group.OnVerdict
	err := r.comm.Run(context.Background(), &a.Round, a)
	a.Wait()
	return err
}

func statePayload(transport.NodeID) any { return "state" }

func (r thresholdRound) adapter(int) error {
	call := r.comm.MulticastThreshold(context.Background(), "n1", r.dests, "update", statePayload, 1)
	call.Wait()
	return call.Err
}

// chargeHop is a simulated hop under a context that cannot be cancelled.
func chargeHop(int) error { return simtime.ChargeCtx(context.Background(), time.Millisecond) }

// A vector, one that adds a component to it, and a sink that keeps their
// merge on the heap, where the manager's vectors live.
var (
	vvBase = replication.VersionVector{{Node: "n1", Count: 8}, {Node: "n3", Count: 2}}
	vvAdds = replication.VersionVector{{Node: "n2", Count: 1}}
	vvSink replication.VersionVector
)

func growingMerge(int) error {
	vvSink = vvBase.Merged(vvAdds)
	return nil
}
