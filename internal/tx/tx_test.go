package tx

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dedisys/internal/object"
)

type fakeResource struct {
	prepareErr error
	onPrepare  func(t *Tx)

	prepared, committed int
}

func (f *fakeResource) Prepare(t *Tx) error {
	f.prepared++
	if f.onPrepare != nil {
		f.onPrepare(t)
	}
	return f.prepareErr
}
func (f *fakeResource) Commit(t *Tx) error { f.committed++; return nil }

var _ Resource = (*fakeResource)(nil)

func TestCommitHappyPath(t *testing.T) {
	m := NewManager()
	r := &fakeResource{}
	m.RegisterResource(r)
	txn := m.Begin()
	if txn.Status() != Active {
		t.Fatalf("status = %v", txn.Status())
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if txn.Status() != Committed {
		t.Fatalf("status = %v", txn.Status())
	}
	if r.prepared != 1 || r.committed != 1 {
		t.Fatalf("resource calls = %+v", r)
	}
	if err := txn.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit err = %v", err)
	}

	// A transaction begun in place is the transaction BeginCtx makes: an id
	// after the last one either way handed out, the registered resources
	// driven through commit and not through rollback, and begun again after
	// either.
	ctx := context.Background()
	first := m.BeginCtx(ctx)
	var inPlace Tx
	m.BeginInto(ctx, &inPlace)
	last := m.BeginCtx(ctx)
	if !(first.ID() < inPlace.ID() && inPlace.ID() < last.ID()) {
		t.Fatalf("ids %d, %d, %d do not increase across BeginCtx and BeginInto", first.ID(), inPlace.ID(), last.ID())
	}
	if inPlace.Status() != Active || inPlace.Context() != ctx {
		t.Fatalf("begun with status %v, context %v", inPlace.Status(), inPlace.Context())
	}
	if err := inPlace.Commit(); err != nil {
		t.Fatal(err)
	}
	if r.prepared != 2 || r.committed != 2 {
		t.Fatalf("after BeginInto's Commit: resource calls = %+v", r)
	}
	m.BeginInto(ctx, &inPlace)
	if err := inPlace.Rollback(); err != nil {
		t.Fatal(err)
	}
	if r.prepared != 2 || r.committed != 2 {
		t.Fatalf("after BeginInto's Rollback: resource calls = %+v", r)
	}
}

// TestReusedTxStartsClean: a transaction begun again in place keeps nothing of
// the operation before it — a new id, no lock, no write, no value and no
// rollback-only flag — and the lock it released is free for another. What it
// locked, wrote and stored went back to the manager cleared when it finished.
func TestReusedTxStartsClean(t *testing.T) {
	m := NewManager(WithLockTimeout(50 * time.Millisecond))
	reg := object.NewRegistry()
	a := object.New("C", "a", object.State{"v": int64(1)})
	if err := reg.Add(a); err != nil {
		t.Fatal(err)
	}
	var reused Tx
	for round, end := range []func(*Tx) error{(*Tx).Commit, (*Tx).Rollback} {
		m.BeginInto(context.Background(), &reused)
		old := reused.ID()
		for _, id := range []object.ID{"a", "b"} {
			if err := reused.Lock(id); err != nil {
				t.Fatal(err)
			}
		}
		reused.RecordUpdate(a)
		reused.RecordCreate(reg, "b")
		reused.Put("k", round)
		reused.SetRollbackOnly(errors.New("veto"))
		mem := reused.mem
		_ = end(&reused)
		if reused.mem != nil {
			t.Fatalf("round %d: the finished transaction kept its memory", round)
		}
		assertCleared(t, mem)

		m.BeginInto(context.Background(), &reused)
		if reused.ID() == old || reused.Status() != Active {
			t.Fatalf("round %d: begun again as tx %d (was %d), status %v", round, reused.ID(), old, reused.Status())
		}
		if reused.HoldsLock("a") || reused.HoldsLock("b") {
			t.Fatalf("round %d: the reused transaction holds a lock of the last one", round)
		}
		var writes []Write
		reused.Writes(func(w Write) { writes = append(writes, w) })
		if len(writes) != 0 || reused.Value("k") != nil || reused.rollbackOnly || reused.rbReason != nil || reused.mem != nil {
			t.Fatalf("round %d: reused transaction starts with writes %v, value %v, rollback-only %v (%v), memory %p",
				round, writes, reused.Value("k"), reused.rollbackOnly, reused.rbReason, reused.mem)
		}
		other := m.Begin()
		for _, id := range []object.ID{"a", "b"} {
			if err := other.Lock(id); err != nil {
				t.Fatalf("round %d: the lock the last operation held: %v", round, err)
			}
		}
		if err := other.Rollback(); err != nil {
			t.Fatal(err)
		}
		if err := reused.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPrepareFailureRollsBack(t *testing.T) {
	m := NewManager()
	boom := errors.New("boom")
	r1 := &fakeResource{}
	r2 := &fakeResource{prepareErr: boom}
	m.RegisterResource(r1)
	m.RegisterResource(r2)
	txn := m.Begin()
	err := txn.Commit()
	if !errors.Is(err, ErrPrepareFailed) || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if txn.Status() != RolledBack {
		t.Fatalf("status = %v", txn.Status())
	}
	if r1.committed != 0 {
		t.Fatalf("resource calls: r1=%+v r2=%+v", r1, r2)
	}
}

func TestRollbackOnly(t *testing.T) {
	m := NewManager()
	r := &fakeResource{}
	m.RegisterResource(r)
	txn := m.Begin()
	cause := errors.New("constraint violated")
	txn.SetRollbackOnly(cause)
	txn.SetRollbackOnly(errors.New("second reason ignored"))
	err := txn.Commit()
	if !errors.Is(err, ErrRollbackOnly) || !errors.Is(err, cause) {
		t.Fatalf("err = %v", err)
	}
	if r.prepared != 0 {
		t.Fatalf("resource calls = %+v", r)
	}
}

func TestVetoDuringPrepare(t *testing.T) {
	m := NewManager()
	cause := errors.New("soft constraint violated")
	veto := &fakeResource{onPrepare: func(tx *Tx) { tx.SetRollbackOnly(cause) }}
	after := &fakeResource{}
	m.RegisterResource(veto)
	m.RegisterResource(after)
	txn := m.Begin()
	err := txn.Commit()
	if !errors.Is(err, ErrRollbackOnly) || !errors.Is(err, cause) {
		t.Fatalf("err = %v", err)
	}
	if after.prepared != 0 {
		t.Fatal("prepare continued past veto")
	}
	if txn.Status() != RolledBack {
		t.Fatalf("status = %v", txn.Status())
	}
}

func TestUndoLogRestoresState(t *testing.T) {
	m := NewManager()
	reg := object.NewRegistry()
	e := object.New("Flight", "f1", object.State{"sold": int64(70)})
	if err := reg.Add(e); err != nil {
		t.Fatal(err)
	}

	txn := m.Begin()
	txn.RecordUpdate(e)
	e.Set("sold", int64(77))
	created := object.New("Flight", "f2", nil)
	if err := reg.Add(created); err != nil {
		t.Fatal(err)
	}
	txn.RecordCreate(reg, "f2")
	if err := reg.Remove("f1"); err == nil {
		txn.RecordDelete(reg, e)
	}
	compensated := false
	txn.RecordUndo(func() { compensated = true })

	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if e.GetInt("sold") != 70 || e.Version() != 1 {
		t.Fatalf("update not undone: sold=%d v=%d", e.GetInt("sold"), e.Version())
	}
	if reg.Has("f2") {
		t.Fatal("create not undone")
	}
	if !reg.Has("f1") {
		t.Fatal("delete not undone")
	}
	if !compensated {
		t.Fatal("custom undo not run")
	}
	if err := txn.Rollback(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double rollback err = %v", err)
	}
}

func TestCommitKeepsMutations(t *testing.T) {
	m := NewManager()
	e := object.New("Flight", "f1", object.State{"sold": int64(70)})
	txn := m.Begin()
	txn.RecordUpdate(e)
	e.Set("sold", int64(75))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.GetInt("sold") != 75 {
		t.Fatalf("commit undid mutation: %d", e.GetInt("sold"))
	}
}

func TestLockingReentrantAndExclusive(t *testing.T) {
	m := NewManager(WithLockTimeout(50 * time.Millisecond))
	t1 := m.Begin()
	t2 := m.Begin()
	if err := t1.Lock("o1"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Lock("o1"); err != nil {
		t.Fatalf("reentrant lock failed: %v", err)
	}
	if !t1.HoldsLock("o1") || t2.HoldsLock("o1") {
		t.Fatal("HoldsLock wrong")
	}
	if err := t2.Lock("o1"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("conflicting lock err = %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Lock("o1"); err != nil {
		t.Fatalf("lock after release failed: %v", err)
	}
	if err := t2.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestLockBlocksUntilRelease(t *testing.T) {
	m := NewManager(WithLockTimeout(2 * time.Second))
	t1 := m.Begin()
	if err := t1.Lock("o1"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	acquired := make(chan error, 1)
	go func() {
		defer wg.Done()
		t2 := m.Begin()
		acquired <- t2.Lock("o1")
		_ = t2.Rollback()
	}()
	time.Sleep(20 * time.Millisecond)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-acquired; err != nil {
		t.Fatalf("waiter failed: %v", err)
	}
	wg.Wait()
}

func TestLockOnCompletedTx(t *testing.T) {
	m := NewManager()
	txn := m.Begin()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Lock("o1"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("lock on committed tx err = %v", err)
	}
}

func TestTxScopedValues(t *testing.T) {
	m := NewManager()
	txn := m.Begin()
	if got := txn.Value("nh"); got != nil {
		t.Fatalf("unset value = %v", got)
	}
	txn.Put("nh", 42)
	if got := txn.Value("nh"); got != 42 {
		t.Fatalf("value = %v", got)
	}
}

func TestTxIDsUnique(t *testing.T) {
	m := NewManager()
	seen := make(map[int64]bool)
	for i := 0; i < 100; i++ {
		txn := m.Begin()
		if seen[txn.ID()] {
			t.Fatalf("duplicate tx id %d", txn.ID())
		}
		seen[txn.ID()] = true
		_ = txn.Rollback()
	}
}

func TestConcurrentTransactionsOnDistinctObjects(t *testing.T) {
	m := NewManager()
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				txn := m.Begin()
				id := object.ID(rune('a' + w%8))
				if err := txn.Lock(id); err != nil {
					errs <- err
					_ = txn.Rollback()
					return
				}
				if err := txn.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// sameList reports whether two non-empty attribute lists are one list, not
// merely equal ones.
func sameList(a, b object.Attrs) bool {
	return len(a) > 0 && len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// TestAliasRollback covers the undo record's side of the copy-on-write rule:
// the record holds the entity's own pre-image list (no copy), the writes that
// follow land in a new list, rollback hands the same list back, and a later write —
// in a transaction or bare — still leaves it alone, because a restored entity
// is a shared one.
func TestAliasRollback(t *testing.T) {
	m := NewManager()
	e := object.New("Flight", "f1", object.State{"sold": int64(70), "tags": []string{"a"}})
	want := e.Snapshot()

	for _, writes := range []int{1, 3} {
		txn := m.Begin()
		if err := txn.Lock("f1"); err != nil {
			t.Fatal(err)
		}
		txn.RecordUpdate(e)
		pre := txn.log()[0].state
		for i := 0; i < writes; i++ {
			e.Set("sold", int64(71+i))
			e.Set("tags", []string{"b"})
		}
		if !reflect.DeepEqual(pre.Map(), want) {
			t.Fatalf("%d writes reached the undo record's pre-image: %v", writes, pre)
		}
		if err := txn.Rollback(); err != nil {
			t.Fatal(err)
		}
		if got, version := e.Share(); !sameList(got, pre) || !reflect.DeepEqual(pre.Map(), want) || version != 1 {
			t.Fatalf("rollback after %d writes: entity %v v%d, pre-image %v", writes, e.Snapshot(), e.Version(), pre)
		}

		// The restored list is still the earlier record's: neither a
		// transactional nor a bare write may disturb it.
		next := m.Begin()
		if err := next.Lock("f1"); err != nil {
			t.Fatal(err)
		}
		next.RecordUpdate(e)
		e.Set("sold", int64(99))
		if err := next.Commit(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pre.Map(), want) || e.GetInt("sold") != 99 {
			t.Fatalf("write after rollback: pre-image %v, entity %v", pre, e.Snapshot())
		}
		e.Restore(pre, 1)
		e.Set("sold", int64(98))
		if !reflect.DeepEqual(pre.Map(), want) {
			t.Fatalf("bare write after restore reached the pre-image: %v", pre)
		}
		e.Restore(pre, 1)
	}
}

// TestRecordUpdateConsecutiveIsNoOp: node.dispatch records before every
// write invocation, so K writes to one object must cost what one write costs
// — one undo record, one copy of the state — and roll back to the first
// pre-image. A record for another entity in between is looked past: the
// dedupe covers the whole log.
func TestRecordUpdateConsecutiveIsNoOp(t *testing.T) {
	m := NewManager()
	e := object.New("Flight", "f1", object.State{"sold": int64(0), "seats": int64(80)})
	other := object.New("Flight", "f2", object.State{"sold": int64(0)})

	txn := m.Begin()
	for i := 1; i <= 8; i++ {
		txn.RecordUpdate(e)
		e.Set("sold", int64(i))
	}
	if len(txn.log()) != 1 {
		t.Fatalf("8 writes to one object left %d undo records, want 1", len(txn.log()))
	}
	txn.RecordUpdate(other)
	other.Set("sold", int64(1))
	txn.RecordUpdate(e)
	e.Set("sold", int64(9))
	if len(txn.log()) != 2 {
		t.Fatalf("interleaved writes left %d undo records, want 2", len(txn.log()))
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if e.GetInt("sold") != 0 || e.Version() != 1 || other.GetInt("sold") != 0 || other.Version() != 1 {
		t.Fatalf("rollback: f1 %v v%d, f2 %v v%d", e.Snapshot(), e.Version(), other.Snapshot(), other.Version())
	}

	run := func(writes int) func() {
		return func() {
			txn := m.Begin()
			if err := txn.Lock("f1"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < writes; i++ {
				txn.RecordUpdate(e)
				e.Set("sold", int64(i)) // small values box without allocating
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	one, eight := fewestAllocs(20, run(1)), fewestAllocs(20, run(8))
	if eight != one {
		t.Fatalf("a transaction of 8 writes to one object allocates %.1f, one write %.1f: the state is copied more than once", eight, one)
	}
}
