package tx

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dedisys/internal/object"
)

// assertCleared fails unless mem, memory a finished transaction handed back,
// holds no record, lock or value, in its length or in the arrays behind it.
func assertCleared(t *testing.T, mem *txMem) {
	t.Helper()
	if mem == nil {
		t.Fatal("the transaction borrowed no memory")
	}
	if len(mem.undo) != 0 || len(mem.held) != 0 || len(mem.vals) != 0 {
		t.Fatalf("handed back with %d records, %d locks and %d values", len(mem.undo), len(mem.held), len(mem.vals))
	}
	for _, u := range mem.undo[:cap(mem.undo)] {
		if !reflect.ValueOf(u).IsZero() {
			t.Fatalf("the log's array still holds %+v", u)
		}
	}
	for _, id := range mem.held[:cap(mem.held)] {
		if id != "" {
			t.Fatalf("the lock set's array still holds %q", id)
		}
	}
}

// fewestAllocs returns the fewest allocations one call of f made, over n
// calls. The race detector's sync.Pool drops one in four of the memories handed
// back to it, and a transaction that borrows after a drop allocates what the
// list would have lent; a call after no drop counts f's own allocations alone.
func fewestAllocs(n int, f func()) float64 {
	least := math.Inf(1)
	for i := 0; i < n; i++ {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// TestExplicitTxBorrowsItsMemory: a transaction begun with BeginCtx, committed
// or rolled back, hands its log, lock set and values back cleared once every
// resource has read them, and the next transaction borrows them. The finished
// transaction reads as empty — no writes, locks or values, and Lock fails —
// and what is recorded on it reaches no memory another transaction has.
func TestExplicitTxBorrowsItsMemory(t *testing.T) {
	m := NewManager(WithLockTimeout(50 * time.Millisecond))
	r := &writeSetReader{}
	m.RegisterResource(r)
	reg := object.NewRegistry()
	a := object.New("C", "a", object.State{"v": int64(1)})
	if err := reg.Add(a); err != nil {
		t.Fatal(err)
	}
	want := []Write{{Kind: Updated, ID: "a"}, {Kind: Created, ID: "b", Payload: "state of b"}}
	ctx := context.Background()
	for _, end := range []struct {
		name string
		fn   func(*Tx) error
		seen []Write // what the resource read in Commit
	}{{"commit", (*Tx).Commit, want}, {"rollback", (*Tx).Rollback, nil}} {
		// The race detector's sync.Pool drops one memory in four it is handed:
		// an attempt whose memory was dropped starts over.
		handed := false
		for attempt := 0; attempt < 16 && !handed; attempt++ {
			r.seen = nil
			txn := m.BeginCtx(ctx)
			for _, id := range []object.ID{"a", "b"} {
				if err := txn.Lock(id); err != nil {
					t.Fatal(err)
				}
			}
			txn.RecordUpdate(a)
			txn.RecordWrite(Created, "b", "state of b")
			txn.Put("k", 1)
			mem := txn.mem
			if err := end.fn(txn); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.seen, end.seen) {
				t.Fatalf("%s: the resource read %+v in Commit, want %+v", end.name, r.seen, end.seen)
			}
			var writes []Write
			txn.Writes(func(w Write) { writes = append(writes, w) })
			if txn.mem != nil || writes != nil || txn.HoldsLock("a") || txn.HoldsLock("b") || txn.Value("k") != nil {
				t.Fatalf("%s: the finished transaction reads memory %p, writes %v, locks %v %v, value %v",
					end.name, txn.mem, writes, txn.HoldsLock("a"), txn.HoldsLock("b"), txn.Value("k"))
			}
			if err := txn.Lock("c"); !errors.Is(err, ErrNotActive) {
				t.Fatalf("%s: Lock on the finished transaction: %v", end.name, err)
			}
			assertCleared(t, mem)

			next, beside := m.BeginCtx(ctx), m.BeginCtx(ctx)
			for _, id := range []object.ID{"a", "b"} {
				if err := next.Lock(id); err != nil {
					t.Fatalf("%s: the lock the finished transaction held: %v", end.name, err)
				}
			}
			if err := beside.Lock("c"); err != nil {
				t.Fatal(err)
			}
			if next.mem == beside.mem {
				t.Fatalf("%s: two live transactions borrowed one memory", end.name)
			}
			handed = next.mem == mem || beside.mem == mem
			txn.RecordUpdate(a)
			txn.RecordCreate(reg, "y")
			txn.RecordDelete(reg, a)
			txn.RecordWrite(Deleted, "z", nil)
			txn.RecordUndo(func() {})
			txn.Put("k", 2)
			if txn.mem != nil || len(next.log()) != 0 || len(beside.log()) != 0 || next.Value("k") != nil || beside.Value("k") != nil {
				t.Fatalf("%s: recording on the finished transaction reached the memory of the next", end.name)
			}
			if err := next.Rollback(); err != nil {
				t.Fatal(err)
			}
			if err := beside.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		if !handed {
			t.Fatalf("%s: no later transaction borrowed the memory a finished one handed back", end.name)
		}
	}
}

// writeSetChecker checks, in Commit, that a transaction's write set is
// exactly what the test says it wrote.
type writeSetChecker struct {
	want sync.Map // transaction ID → []Write
	mu   sync.Mutex
	errs []error
}

func (c *writeSetChecker) Prepare(*Tx) error { return nil }

func (c *writeSetChecker) Commit(t *Tx) error {
	var got []Write
	t.Writes(func(w Write) { got = append(got, w) })
	want, _ := c.want.Load(t.ID())
	if !reflect.DeepEqual(got, want) {
		c.mu.Lock()
		c.errs = append(c.errs, fmt.Errorf("tx %d read %+v in Commit, want %+v", t.ID(), got, want))
		c.mu.Unlock()
	}
	return nil
}

// TestConcurrentExplicitTxWriteSets: goroutines commit and roll back explicit
// transactions of one to four objects, each on objects of its own, while their
// memory passes between them; every resource's Commit reads exactly the writes
// of the transaction it is driven by.
func TestConcurrentExplicitTxWriteSets(t *testing.T) {
	const (
		workers = 8
		rounds  = 1000
	)
	m := NewManager()
	c := &writeSetChecker{}
	m.RegisterResource(c)
	var wg sync.WaitGroup
	fail := make(chan error, workers)
	for g := 0; g < workers; g++ {
		var beans []*object.Entity
		for k := 0; k < 3; k++ {
			beans = append(beans, object.New("C", object.ID(fmt.Sprintf("g%d-%d", g, k)), object.State{"v": int64(k)}))
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				txn := m.BeginCtx(context.Background())
				var want []Write
				for _, e := range beans[:i%len(beans)] {
					if err := txn.Lock(e.ID()); err != nil {
						fail <- err
						return
					}
					txn.RecordUpdate(e)
					want = append(want, Write{Kind: Updated, ID: e.ID()})
					runtime.Gosched() // live transactions overlap on every P
				}
				created := object.ID(fmt.Sprintf("g%d-new-%d", g, i))
				if err := txn.Lock(created); err != nil {
					fail <- err
					return
				}
				txn.RecordWrite(Created, created, i)
				want = append(want, Write{Kind: Created, ID: created, Payload: i})
				c.want.Store(txn.ID(), want)
				if i%3 == 0 {
					_ = txn.Rollback()
				} else if err := txn.Commit(); err != nil {
					fail <- err
					return
				}
				if txn.HoldsLock(created) {
					fail <- fmt.Errorf("tx %d holds a lock after it finished", txn.ID())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, err := range c.errs {
		if i == 5 {
			t.Fatalf("... %d write sets wrong in all", len(c.errs))
		}
		t.Error(err)
	}
}
