package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dedisys/internal/tx"
)

// clients is the closed-loop concurrency: fixed, equal to the core count of
// the box the bounds were set on. Each client issues its next operation when
// the previous one returned.
const clients = 2

type opClass uint8

const (
	classRead opClass = iota
	classWrite
	classTx4
	classDegraded // partition-heal's writes while partitioned
	numClasses
)

var classNames = [numClasses]string{"read", "write", "tx4", "degraded_write"}

// op is one generated operation: the node the client calls, the objects it
// touches and, for writes, the value each object receives.
type op struct {
	class opClass
	node  int
	n     int
	objs  [4]int
	vals  [4]int64
}

func (o op) String() string {
	return fmt.Sprintf("%s@%d %v=%v", classNames[o.class], o.node, o.objs[:o.n], o.vals[:o.n])
}

// Written values name their origin: sequence number, writer and object.
// A read can then be checked without keeping any history — the value must
// decode to the object it was read from and to a write that was issued —
// and with one writer per object a larger value is a later write.
func encodeValue(seq int64, writer, obj int) int64 {
	return seq<<24 | int64(writer)<<16 | int64(obj)
}

func decodeValue(v int64) (seq int64, writer, obj int) {
	return v >> 24, int(v >> 16 & 0xff), int(v & 0xffff)
}

// generator yields one client's operation stream, a pure function of the
// seed it was built from.
type generator interface {
	next() op
}

// mix is the operation mix of a steady workload: reads with probability
// readNum/readDen, and among writes one in tx4OneIn is a four-object
// transaction (0 = none).
type mix struct {
	readNum, readDen int
	tx4OneIn         int
}

// steadyGen drives the three time-windowed workloads. Reads pick an object
// uniformly and rotate over its replica set. Writes go to the object's
// coordinator; each object has exactly one writing client (object index mod
// clients) and a client walks a seeded shuffle of its objects per home
// node, so picks stay uniform but an object is rewritten only after every
// other object of that home has been. That keeps a rewrite clear of the
// previous write's straggler batch: two batches for one object applying
// concurrently at a replica can install their states out of order (ROADMAP
// item 3), which this benchmark would have to report as a failed run.
type steadyGen struct {
	rng    *rand.Rand
	lay    *layout
	mix    mix
	writer int
	seq    int64
	rr     int
	mine   []int         // this client's objects, for the home pick
	byHome map[int][]int // home node -> this client's objects there, shuffled
	cursor map[int]int
}

func newSteadyGen(seed int64, phase, client int, lay *layout, m mix) *steadyGen {
	g := &steadyGen{
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(phase)*104729 + int64(client)*7919 + 1)),
		lay:    lay,
		mix:    m,
		writer: client,
		seq:    int64(phase) << 32, // later phases write larger values
		byHome: make(map[int][]int),
		cursor: make(map[int]int),
	}
	for i := client; i < len(lay.ids); i += clients {
		g.mine = append(g.mine, i)
		g.byHome[lay.home[i]] = append(g.byHome[lay.home[i]], i)
	}
	for h := 0; h < lay.nodes; h++ { // fixed order: the shuffles consume the rng
		if l := g.byHome[h]; len(l) > 0 {
			g.rng.Shuffle(len(l), func(a, b int) { l[a], l[b] = l[b], l[a] })
		}
	}
	return g
}

func (g *steadyGen) next() op {
	if g.rng.Intn(g.mix.readDen) < g.mix.readNum {
		obj := g.rng.Intn(len(g.lay.ids))
		reps := g.lay.replicas[obj]
		g.rr++
		return op{class: classRead, node: reps[g.rr%len(reps)], n: 1, objs: [4]int{obj}}
	}
	home := g.lay.home[g.mine[g.rng.Intn(len(g.mine))]]
	o := op{class: classWrite, node: home, n: 1}
	if g.mix.tx4OneIn > 0 && g.rng.Intn(g.mix.tx4OneIn) == 0 && len(g.byHome[home]) >= 4 {
		o.class, o.n = classTx4, 4
	}
	list := g.byHome[home]
	for k := 0; k < o.n; k++ {
		obj := list[g.cursor[home]%len(list)]
		g.cursor[home]++
		g.seq++
		o.objs[k], o.vals[k] = obj, encodeValue(g.seq, g.writer, obj)
	}
	return o
}

// pingGen drives one partition-heal driver: a write to a uniformly picked
// object through the driver's node, then a read of the same object back
// from that node's replica.
type pingGen struct {
	rng     *rand.Rand
	lay     *layout
	node    int
	writer  int
	seq     int64
	pending int // object to read back, -1 when the next op is a write
	// writeClass labels the writes: classDegraded while partitioned.
	writeClass opClass
}

func newPingGen(seed int64, phase, driver, node int, lay *layout) *pingGen {
	return &pingGen{
		rng:        rand.New(rand.NewSource(seed*1000003 + int64(phase)*104729 + int64(driver)*7919 + 2)),
		lay:        lay,
		node:       node,
		writer:     driver,
		seq:        int64(phase) << 32, // phases never reuse a value
		pending:    -1,
		writeClass: classWrite,
	}
}

func (g *pingGen) next() op {
	if g.pending >= 0 {
		obj := g.pending
		g.pending = -1
		return op{class: classRead, node: g.node, n: 1, objs: [4]int{obj}}
	}
	obj := g.rng.Intn(len(g.lay.ids))
	g.pending = obj
	g.seq++
	return op{class: g.writeClass, node: g.node, n: 1, objs: [4]int{obj}, vals: [4]int64{encodeValue(g.seq, g.writer, obj)}}
}

// checker validates every read while the workload runs.
type checker struct {
	nObj       int
	singleWrit bool           // one writer per object: values at a replica must not go backwards
	issued     []atomic.Int64 // per writer: highest sequence number handed to the system
	seen       []atomic.Int64 // per (node, object): highest value a completed read returned
	last       []int64        // per object: the value its single writer issued last
}

func newChecker(lay *layout, writers int, singleWriter bool) *checker {
	k := &checker{nObj: len(lay.ids), singleWrit: singleWriter, issued: make([]atomic.Int64, writers)}
	if singleWriter {
		k.seen = make([]atomic.Int64, lay.nodes*len(lay.ids))
		k.last = make([]int64, len(lay.ids))
	}
	return k
}

// issue notes the writes of o before they are handed to the system.
func (k *checker) issue(o *op) {
	seq, writer, _ := decodeValue(o.vals[o.n-1])
	k.issued[writer].Store(seq)
	if k.singleWrit {
		for i := 0; i < o.n; i++ {
			k.last[o.objs[i]] = o.vals[i] // only this object's writer gets here
		}
	}
}

// floor is what a read that starts now must at least return: the highest
// value any read of this replica has already returned.
func (k *checker) floor(node, obj int) int64 {
	if !k.singleWrit {
		return 0
	}
	return k.seen[node*k.nObj+obj].Load()
}

// read checks one returned value: it was written, to this object, and is
// not older than floor.
func (k *checker) read(node, obj int, floor, v int64) error {
	if v != 0 {
		seq, writer, o := decodeValue(v)
		switch {
		case o != obj:
			return fmt.Errorf("read of object %d returned %#x, a value of object %d", obj, v, o)
		case writer >= len(k.issued) || seq > k.issued[writer].Load():
			return fmt.Errorf("read of object %d returned %#x, which was never written", obj, v)
		}
	}
	if !k.singleWrit {
		return nil
	}
	if v < floor {
		return fmt.Errorf("object %d went backwards on node %d: read %#x after %#x", obj, node, v, floor)
	}
	slot := &k.seen[node*k.nObj+obj]
	for {
		cur := slot.Load()
		if v <= cur || slot.CompareAndSwap(cur, v) {
			return nil
		}
	}
}

// execFunc performs one operation and returns what a read saw.
type execFunc func(ctx context.Context, client int, o *op) (int64, error)

// execPlain is the untraced path: one InvokeCtx per operation, an explicit
// transaction for the four-object write.
func (c *cluster) execPlain(ctx context.Context, _ int, o *op) (int64, error) {
	nd := c.nodes[o.node]
	switch o.class {
	case classRead:
		v, err := nd.InvokeCtx(ctx, c.lay.ids[o.objs[0]], "Value")
		if err != nil {
			return 0, err
		}
		return v.(int64), nil
	case classWrite, classDegraded:
		_, err := nd.InvokeCtx(ctx, c.lay.ids[o.objs[0]], "SetValue", o.vals[0])
		return 0, err
	default:
		t := nd.BeginCtx(ctx)
		for k := 0; k < o.n; k++ {
			if _, err := nd.InvokeTx(t, c.lay.ids[o.objs[k]], "SetValue", o.vals[k]); err != nil {
				_ = t.Rollback() // the invoke error is the one to report
				return 0, err
			}
		}
		return 0, t.Commit()
	}
}

// execTraced runs every operation as Begin → InvokeTx → Commit on the node
// the generator chose and records a span around each public call. With
// forward set (partition-heal, whose drivers write objects coordinated
// elsewhere) writes stay a plain InvokeCtx and the forwarded leg shows up
// as transport.handle.node_invoke.
func (c *cluster) execTraced(tr *tracer, forward bool) execFunc {
	var opSeq [clients]uint64
	return func(ctx context.Context, client int, o *op) (int64, error) {
		opSeq[client]++
		st := &opState{op: uint64(client+1)<<48 | opSeq[client]}
		root := span{op: st.op, id: tr.nextID.Add(1), name: spanOp, class: o.class}
		st.cur.Store(root.id)
		ctx = withOp(ctx, st)
		timed := func(name int, fn func() error) error {
			s := span{op: st.op, id: tr.nextID.Add(1), parent: root.id, name: name, start: tr.now()}
			st.cur.Store(s.id)
			err := fn()
			s.end = tr.now()
			st.cur.Store(root.id)
			tr.record(s)
			return err
		}
		nd := c.nodes[o.node]
		var seen int64
		root.start = tr.now()
		err := func() error {
			if forward && o.class != classRead {
				_, err := nd.InvokeCtx(ctx, c.lay.ids[o.objs[0]], "SetValue", o.vals[0])
				return err
			}
			var t *tx.Tx
			_ = timed(spanBegin, func() error { t = nd.BeginCtx(ctx); return nil })
			for k := 0; k < o.n; k++ {
				id, method, args := c.lay.ids[o.objs[k]], "SetValue", []any{o.vals[k]}
				if o.class == classRead {
					method, args = "Value", nil
				}
				if err := timed(spanInvoke, func() error {
					v, err := nd.InvokeTx(t, id, method, args...)
					if err == nil && o.class == classRead {
						seen = v.(int64)
					}
					return err
				}); err != nil {
					_ = t.Rollback() // the invoke error is the one to report
					return err
				}
			}
			return timed(spanCommit, t.Commit)
		}()
		root.end = tr.now()
		tr.record(root)
		return seen, err
	}
}

// runStats is what one closed-loop window produced.
type runStats struct {
	recs      [numClasses][]rec
	attempted int64
	failed    int64
	firstErr  error
	elapsed   time.Duration
	used      usage
	ticks     []cpuTick // one per second of a timed window, the first at its start
}

// cpuTick is the process CPU time consumed by a point in a window.
type cpuTick struct {
	at  time.Duration
	cpu time.Duration
}

func (r *runStats) completed() int64 { return r.attempted - r.failed }

// stopAt ends a window: at a deadline, or after a fixed number of
// operations per client (the traced pass and the phased scenario, whose
// work must repeat exactly).
type stopAt struct {
	after time.Duration
	ops   int
}

// runClosedLoop runs one client goroutine per generator until stop. Latency
// is the time between consecutive completions of a client — one clock read
// per operation — which is the time around the call plus the generator and
// the read check, tens of nanoseconds. capHint pre-sizes each client's
// sample buffers so growing them is not charged to the window's allocations.
func runClosedLoop(gens []generator, exec execFunc, chk *checker, stop stopAt, capHint [numClasses]int) runStats {
	type result struct {
		recs      [numClasses][]rec
		attempted int64
		failed    int64
		firstErr  error
	}
	results := make([]result, len(gens))
	for i := range results {
		for c := range results[i].recs {
			results[i].recs[c] = make([]rec, 0, capHint[c])
		}
	}
	var wg sync.WaitGroup
	before := readUsage()
	start := time.Now()
	// A timed window also samples process CPU time once a second, so the
	// metrics can be medians over the window's slices.
	var ticks []cpuTick
	sampled := make(chan struct{})
	stopSampling := make(chan struct{})
	go func() {
		defer close(sampled)
		if stop.after == 0 {
			return
		}
		ticks = append(ticks, cpuTick{0, before.cpu})
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				ticks = append(ticks, cpuTick{time.Since(start), cpuTime()})
			case <-stopSampling:
				return
			}
		}
	}()
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g generator) {
			defer wg.Done()
			res := &results[i]
			ctx := context.Background()
			t0 := start
			for n := 0; stop.ops == 0 || n < stop.ops; n++ {
				o := g.next()
				var floor int64
				if o.class == classRead {
					floor = chk.floor(o.node, o.objs[0])
				} else {
					chk.issue(&o)
				}
				v, err := exec(ctx, i, &o)
				if err == nil && o.class == classRead {
					err = chk.read(o.node, o.objs[0], floor, v)
				}
				t1 := time.Now()
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("%s: %w", o, err)
					}
				} else {
					res.recs[o.class] = append(res.recs[o.class], rec{
						endUs: uint32(t1.Sub(start) / time.Microsecond),
						latNs: latNs(t1.Sub(t0)),
					})
				}
				if stop.after > 0 && t1.Sub(start) >= stop.after {
					return
				}
				t0 = t1
			}
		}(i, g)
	}
	wg.Wait()
	out := runStats{elapsed: time.Since(start)}
	close(stopSampling)
	<-sampled
	out.ticks = ticks
	after := readUsage()
	out.used = usage{cpu: after.cpu - before.cpu, mallocs: after.mallocs - before.mallocs, bytes: after.bytes - before.bytes}
	for i := range results {
		for c := range out.recs {
			out.recs[c] = append(out.recs[c], results[i].recs[c]...)
		}
		out.attempted += results[i].attempted
		out.failed += results[i].failed
		if out.firstErr == nil {
			out.firstErr = results[i].firstErr
		}
	}
	return out
}
