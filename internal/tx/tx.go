// Package tx provides the transaction substrate of the middleware
// (the TxMgr of Figure 4.1): transactions with a two-phase commit over
// registered resources, per-object locks for concurrency consistency
// (isolation), an undo log for rollback that is also the transaction's write
// set, and the rollback-only flag used by the constraint consistency manager
// to veto commits (§4.2.3).
package tx

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dedisys/internal/object"
	"dedisys/internal/obs"
)

// Errors of the transaction layer.
var (
	// ErrRollbackOnly reports a commit attempt on a transaction marked
	// rollback-only; the transaction is rolled back instead.
	ErrRollbackOnly = errors.New("tx: transaction marked rollback-only")
	// ErrNotActive reports an operation on a completed transaction.
	ErrNotActive = errors.New("tx: transaction not active")
	// ErrLockTimeout reports that an object lock could not be acquired.
	ErrLockTimeout = errors.New("tx: lock acquisition timed out")
	// ErrPrepareFailed wraps a resource's prepare error.
	ErrPrepareFailed = errors.New("tx: prepare failed")
)

// Status is the lifecycle state of a transaction.
type Status int

// Transaction statuses.
const (
	Active Status = iota + 1
	Committed
	RolledBack
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case RolledBack:
		return "rolled-back"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Resource is a transactional participant in the two-phase commit, e.g. the
// constraint consistency manager or a replication protocol. A resource has
// no rollback step: whatever it must undo it records in the transaction's
// undo log (RecordUndo), which an abort replays.
type Resource interface {
	// Prepare votes on the outcome. Any error aborts the transaction.
	Prepare(t *Tx) error
	// Commit finalises; called only after all participants prepared.
	Commit(t *Tx) error
}

// Manager creates transactions and owns the lock table. One Manager exists
// per node.
type Manager struct {
	seq         atomic.Int64
	lockTimeout time.Duration
	obs         *obs.Observer

	mu        sync.Mutex
	resources []Resource

	locks *lockTable

	begun        *obs.Counter
	committed    *obs.Counter
	rolledBack   *obs.Counter
	lockTimeouts *obs.Counter
	lockWait     *obs.Histogram
}

// Option configures a Manager.
type Option func(*Manager)

// WithLockTimeout overrides the default object-lock acquisition timeout.
func WithLockTimeout(d time.Duration) Option {
	return func(m *Manager) { m.lockTimeout = d }
}

// WithObserver attaches the manager to a shared observability scope; without
// it the manager observes into a private registry.
func WithObserver(o *obs.Observer) Option {
	return func(m *Manager) { m.obs = o }
}

// NewManager creates a transaction manager.
func NewManager(opts ...Option) *Manager {
	m := &Manager{
		lockTimeout: 2 * time.Second,
		locks:       newLockTable(),
	}
	for _, o := range opts {
		o(m)
	}
	if m.obs == nil {
		m.obs = obs.New()
	}
	m.begun = m.obs.Counter("tx.begun")
	m.committed = m.obs.Counter("tx.committed")
	m.rolledBack = m.obs.Counter("tx.rolled_back")
	m.lockTimeouts = m.obs.Counter("tx.lock.timeouts")
	m.lockWait = m.obs.Histogram("tx.lock.wait")
	return m
}

// RegisterResource enlists a resource in every future transaction.
// Registration copies the snapshot (copy-on-write): transactions share the
// published slice without copying it per Begin.
func (m *Manager) RegisterResource(r Resource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := make([]Resource, len(m.resources)+1)
	copy(next, m.resources)
	next[len(next)-1] = r
	m.resources = next
}

// Begin starts a transaction with a background context.
func (m *Manager) Begin() *Tx { return m.BeginCtx(context.Background()) }

// BeginCtx starts a transaction bound to the given context: lock waits and
// commit-time propagation are cancelled when the context is. The context
// does not abort the transaction by itself — the caller still drives
// Commit/Rollback — but every blocking operation inside the transaction
// observes it.
func (m *Manager) BeginCtx(ctx context.Context) *Tx {
	t := new(Tx)
	m.begin(ctx, t)
	return t
}

// BeginInto begins t, a zero transaction or one that finished, in place: a
// fresh id, no lock, no rollback-only flag, an empty write set and no values.
// An operation whose transaction nobody else references (Node.InvokeCtx) so
// reuses its Tx; the log, locks and values it borrows as every transaction
// does (txMem). A transaction still active must not be begun again.
func (m *Manager) BeginInto(ctx context.Context, t *Tx) {
	if t.status == Active {
		panic("tx: BeginInto on an active transaction")
	}
	m.begin(ctx, t)
}

// begin starts t afresh: a new id, the registered resources, and nothing of
// what t was before.
func (m *Manager) begin(ctx context.Context, t *Tx) {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	// The registered-resource snapshot is immutable (RegisterResource
	// replaces it wholesale), so transactions alias it.
	global := m.resources
	m.mu.Unlock()
	m.begun.Inc()
	*t = Tx{id: m.seq.Add(1), mgr: m, ctx: ctx, status: Active, resources: global}
}

// Tx is one transaction. A Tx must be driven by a single goroutine; the
// lock table protects cross-transaction concurrency.
type Tx struct {
	id  int64
	mgr *Manager
	ctx context.Context

	status       Status
	rollbackOnly bool
	rbReason     error

	resources []Resource
	// mem is what the transaction locked, wrote and stored, borrowed from
	// txMems at its first lock, record or Put and handed back when it
	// finishes; nil before and after. An explicit transaction (BeginCtx)
	// allocates the Tx alone, and its 96 bytes fill the 96-byte size class;
	// one word more would push it into the next.
	mem *txMem
}

// txMem is the memory a transaction borrows from txMems and finish clears and
// hands back, on the commit and the rollback path alike (DESIGN.md §15, ninth
// rule). Nothing a transaction hands out points into it, and a finished
// transaction reads none of it: its write set, locks and values are empty.
type txMem struct {
	// undo is the rollback log and, read through Writes, the write set: the
	// transaction keeps nothing else about what it wrote.
	undo []undoRecord
	held []object.ID    // the objects whose lock the transaction holds
	vals map[string]any // lazy: most transactions store no values
}

// txMems is the free list of what transactions borrow, one for every manager
// in the process: a list per manager would be refilled after each collection
// once per node of a simulated cluster.
var txMems = sync.Pool{New: func() any { return new(txMem) }}

// memory returns what t borrowed, borrowing it first if t is active and has
// none yet; nil once t finished.
func (t *Tx) memory() *txMem {
	if t.mem == nil && t.status == Active {
		t.mem = txMems.Get().(*txMem)
	}
	return t.mem
}

// log returns t's undo log: empty before its first record and once it
// finished.
func (t *Tx) log() []undoRecord {
	if t.mem == nil {
		return nil
	}
	return t.mem.undo
}

// record appends u to the undo log; a finished transaction records nothing.
func (t *Tx) record(u undoRecord) {
	if mem := t.memory(); mem != nil {
		mem.undo = append(mem.undo, u)
	}
}

// WriteKind says what a transaction did to one object.
type WriteKind uint8

// The kinds of a write-set entry.
const (
	Updated WriteKind = iota + 1
	Created
	Deleted
)

// Write is one entry of a transaction's write set (Writes).
type Write struct {
	Kind WriteKind
	ID   object.ID
	// Payload is what RecordWrite attached to the record that decided Kind:
	// the state of an object this node coordinates but does not hold. Nil for
	// a write recorded with its undo.
	Payload any
}

// undoRecord is one rollback action and, unless kind is zero, one mark in the
// write set: the undo log is the only record of what the transaction wrote.
// Typed fields instead of a captured closure: recording an update on the
// write hot path stores a value in the undo slice without allocating a
// closure per mutation. The attributes an update restores have a field of
// their own, since a list put in the aux word would box its header (DESIGN.md
// §15, eighth rule); what else differs by kind shares the aux word (a registry
// and a func are pointer-shaped, so storing them allocates nothing). That
// makes the record 80 bytes. The log's array is borrowed (txMem) and keeps
// what it grew to, so a larger record costs no allocation once the free list
// is warm, but it is copied on every record and scanned on every write.
type undoRecord struct {
	kind    WriteKind      // zero: a bare compensation, not a write
	local   bool           // the write changed this node's registry or entity and apply undoes it
	id      object.ID      // the object written
	entity  *object.Entity // update: restore target; delete: the entity to re-add
	version int64          // update: pre-version
	state   object.Attrs   // update: the pre-state (shared with the entity, never written)
	// aux is the *object.Registry a local create or delete is undone in, the
	// func() of a compensation, or the payload of a RecordWrite.
	aux any
}

func (u *undoRecord) apply() {
	switch {
	case u.kind == 0:
		u.aux.(func())()
	case !u.local:
		// RecordWrite: nothing on this node to undo.
	case u.kind == Updated:
		u.entity.Restore(u.state, u.version)
	case u.kind == Created:
		_ = u.aux.(*object.Registry).Remove(u.id)
	case u.kind == Deleted:
		_ = u.aux.(*object.Registry).Add(u.entity)
	}
}

// ID returns the transaction identifier (unique per manager).
func (t *Tx) ID() int64 { return t.id }

// Context returns the context the transaction was begun with (never nil).
// Middleware resources use it to bound commit-time propagation.
func (t *Tx) Context() context.Context {
	if t.ctx == nil {
		return context.Background()
	}
	return t.ctx
}

// Status returns the transaction status.
func (t *Tx) Status() Status { return t.status }

// Put stores a transaction-scoped value, e.g. the registered negotiation
// handler of §3.2.1. A finished transaction stores nothing.
func (t *Tx) Put(key string, v any) {
	mem := t.memory()
	if mem == nil {
		return
	}
	if mem.vals == nil {
		mem.vals = make(map[string]any)
	}
	mem.vals[key] = v
}

// Value retrieves a transaction-scoped value; a finished transaction has none.
func (t *Tx) Value(key string) any {
	if t.mem == nil {
		return nil
	}
	return t.mem.vals[key]
}

// SetRollbackOnly marks the transaction so it can no longer commit. The
// first reason is retained and returned from Commit.
func (t *Tx) SetRollbackOnly(reason error) {
	if !t.rollbackOnly {
		t.rollbackOnly = true
		t.rbReason = reason
	}
}

// Lock acquires the exclusive lock on an object for this transaction.
// Locks are reentrant per transaction and released at completion.
func (t *Tx) Lock(id object.ID) error {
	if t.status != Active {
		return fmt.Errorf("%w: %s", ErrNotActive, t.status)
	}
	if t.HoldsLock(id) {
		return nil
	}
	m := t.mgr
	var err error
	if m.obs.Tracing() {
		// Wait-time measurement only when tracing: the common path pays no
		// clock reads beyond what acquire itself needs.
		start := time.Now()
		err = m.locks.acquire(t.Context(), id, t.id, m.lockTimeout)
		m.lockWait.Observe(time.Since(start))
	} else {
		err = m.locks.acquire(t.Context(), id, t.id, m.lockTimeout)
	}
	if err != nil {
		m.lockTimeouts.Inc()
		if m.obs.Tracing() {
			m.obs.Emit(obs.EventLockTimeout, fmt.Sprintf("tx %d: %v", t.id, err))
		}
		return err
	}
	mem := t.memory()
	mem.held = append(mem.held, id)
	return nil
}

// HoldsLock reports whether this transaction owns the object's lock. The set
// is scanned: a transaction locks a few objects.
func (t *Tx) HoldsLock(id object.ID) bool {
	return t.mem != nil && slices.Contains(t.mem.held, id)
}

// RecordUpdate saves the entity's pre-state for rollback and marks the
// object written. Call before a mutation of the entity within this
// transaction, holding its object lock. The record shares the entity's
// attribute list instead of copying it (object.Entity.Share): the first Set
// that follows builds the one new list, and rollback hands the shared
// pre-image back. A call whose entity the log already restores, or whose object this
// transaction created, is a no-op wherever in the log that record lies — K
// writes to one object keep the first pre-image and copy the state once,
// whatever else the transaction wrote in between. A finished transaction
// records nothing.
func (t *Tx) RecordUpdate(e *object.Entity) {
	mem := t.memory()
	if mem == nil {
		return
	}
	for i := range mem.undo {
		switch u := &mem.undo[i]; u.kind {
		case Updated:
			if u.entity == e {
				return
			}
		case Created:
			if u.id == e.ID() {
				return // undone by removing the entity, whatever state it holds
			}
		}
	}
	state, version := e.Share()
	mem.undo = append(mem.undo, undoRecord{kind: Updated, local: true, id: e.ID(), entity: e, version: version, state: state})
}

// RecordCreate marks the object created and registers an undo that removes
// the entity again.
func (t *Tx) RecordCreate(reg *object.Registry, id object.ID) {
	t.record(undoRecord{kind: Created, local: true, id: id, aux: reg})
}

// RecordDelete marks the object deleted and registers an undo that re-adds
// the entity.
func (t *Tx) RecordDelete(reg *object.Registry, e *object.Entity) {
	t.record(undoRecord{kind: Deleted, local: true, id: e.ID(), entity: e, aux: reg})
}

// RecordWrite marks an object created or deleted by a node that holds no copy
// of it: there is nothing local to undo, but the write still belongs to the
// write set, and payload rides on it to the resource that ships it at commit.
func (t *Tx) RecordWrite(kind WriteKind, id object.ID, payload any) {
	t.record(undoRecord{kind: kind, id: id, aux: payload})
}

// RecordUndo registers an arbitrary compensation to run on rollback. It is
// not a write.
func (t *Tx) RecordUndo(fn func()) {
	t.record(undoRecord{aux: fn})
}

// Writes calls fn once per object the transaction wrote, in the order the
// objects were first touched. It reads the undo log in place — resources call
// it from Commit, while the log still stands — and merges the records of one
// object under one rule: its last create or delete decides the kind, and
// without either it is an update (a create absorbs the updates that follow
// it). After the transaction finished the set is empty.
func (t *Tx) Writes(fn func(Write)) {
	undo := t.log()
	for i := range undo {
		u := &undo[i]
		if u.kind == 0 || wroteBefore(undo[:i], u.id) {
			continue
		}
		last := u
		for j := i + 1; j < len(undo); j++ {
			if v := &undo[j]; (v.kind == Created || v.kind == Deleted) && v.id == u.id {
				last = v
			}
		}
		w := Write{Kind: last.kind, ID: u.id}
		if !last.local {
			w.Payload = last.aux
		}
		fn(w)
	}
}

// wroteBefore reports whether a record of undo already put the object in the
// write set.
func wroteBefore(undo []undoRecord, id object.ID) bool {
	for j := range undo {
		if u := &undo[j]; u.kind != 0 && u.id == id {
			return true
		}
	}
	return false
}

// Commit runs the two-phase commit: prepare all resources, then commit them.
// A prepare failure or the rollback-only flag triggers rollback and returns
// the causing error.
func (t *Tx) Commit() error {
	if t.status != Active {
		return fmt.Errorf("%w: %s", ErrNotActive, t.status)
	}
	if t.rollbackOnly {
		t.rollback()
		if t.rbReason != nil {
			return fmt.Errorf("%w: %w", ErrRollbackOnly, t.rbReason)
		}
		return ErrRollbackOnly
	}
	for _, r := range t.resources {
		if err := r.Prepare(t); err != nil {
			t.rollback()
			return fmt.Errorf("%w: %w", ErrPrepareFailed, err)
		}
		// Prepare may discover a veto (e.g. soft constraint violation sets
		// rollback-only instead of erroring).
		if t.rollbackOnly {
			t.rollback()
			if t.rbReason != nil {
				return fmt.Errorf("%w: %w", ErrRollbackOnly, t.rbReason)
			}
			return ErrRollbackOnly
		}
	}
	for _, r := range t.resources {
		if err := r.Commit(t); err != nil {
			// Commit errors after successful prepare indicate a middleware
			// defect; surface them but the transaction is committed.
			t.finish(Committed)
			return fmt.Errorf("tx %d: commit phase: %w", t.id, err)
		}
	}
	t.finish(Committed)
	return nil
}

// Rollback aborts the transaction, undoing recorded mutations in reverse.
func (t *Tx) Rollback() error {
	if t.status != Active {
		return fmt.Errorf("%w: %s", ErrNotActive, t.status)
	}
	t.rollback()
	return nil
}

func (t *Tx) rollback() {
	undo := t.log()
	for i := len(undo) - 1; i >= 0; i-- {
		undo[i].apply()
	}
	t.finish(RolledBack)
}

func (t *Tx) finish(s Status) {
	t.status = s
	switch s {
	case Committed:
		t.mgr.committed.Inc()
	case RolledBack:
		t.mgr.rolledBack.Inc()
	}
	mem := t.mem
	if mem == nil {
		return
	}
	// Every resource has read the log by now. The records, locks and values
	// go, the arrays and the map stay for the next transaction to borrow.
	t.mem = nil
	t.mgr.locks.release(mem.held, t.id)
	clear(mem.undo)
	mem.undo = mem.undo[:0]
	clear(mem.held)
	mem.held = mem.held[:0]
	clear(mem.vals)
	txMems.Put(mem)
}

// lockTable implements per-object exclusive locks with timeout.
type lockTable struct {
	mu    sync.Mutex
	cond  *sync.Cond
	owner map[object.ID]int64
}

func newLockTable() *lockTable {
	lt := &lockTable{owner: make(map[object.ID]int64)}
	lt.cond = sync.NewCond(&lt.mu)
	return lt
}

func (lt *lockTable) acquire(ctx context.Context, id object.ID, txID int64, timeout time.Duration) error {
	// The wait is bounded by whichever is tighter: the manager's lock
	// timeout or the transaction context's deadline. Cancellation surfaces
	// as ErrLockTimeout with the context error in the wrap chain.
	deadline := time.Now().Add(timeout)
	ctxBound := false
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
		ctxBound = true
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("%w: object %s: %w", ErrLockTimeout, id, cerr)
		}
		owner, locked := lt.owner[id]
		if !locked {
			lt.owner[id] = txID
			return nil
		}
		if owner == txID {
			return nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("%w: object %s: %w", ErrLockTimeout, id, cerr)
			}
			if ctxBound {
				// The context deadline was the binding bound; its timer may
				// lag our clock check by a few microseconds.
				return fmt.Errorf("%w: object %s: %w", ErrLockTimeout, id, context.DeadlineExceeded)
			}
			return fmt.Errorf("%w: object %s held by tx %d", ErrLockTimeout, id, owner)
		}
		// Wake periodically to re-check the deadline; broadcast on release
		// normally wakes us first. Never wait past the deadline: a timeout
		// shorter than one tick must still expire on time.
		wait := 10 * time.Millisecond
		if remaining < wait {
			wait = remaining
		}
		waitWithTimeout(lt.cond, wait)
	}
}

// release frees the locks of ids that txID owns, under one hold of the table
// and with one wake-up.
func (lt *lockTable) release(ids []object.ID, txID int64) {
	if len(ids) == 0 {
		return
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	freed := false
	for _, id := range ids {
		if lt.owner[id] == txID {
			delete(lt.owner, id)
			freed = true
		}
	}
	if freed {
		lt.cond.Broadcast()
	}
}

// waitWithTimeout waits on cond for at most d. The caller must hold the
// cond's lock; the lock is held again on return.
func waitWithTimeout(cond *sync.Cond, d time.Duration) {
	timer := time.AfterFunc(d, cond.Broadcast)
	cond.Wait()
	timer.Stop()
}
