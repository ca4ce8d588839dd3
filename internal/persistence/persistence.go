// Package persistence provides the per-node persistent store of Figure 4.1,
// replacing the prototype's MySQL database. It stores records in named tables,
// each in its type's wire form (a Record: the codec the real wire has, with
// its strict decode rules; a value the form cannot carry fails its write),
// and charges a configurable synchronous write cost so that the evaluation
// reproduces the shape of database-bound operations (persisting consistency
// threats, replica metadata, and state history).
//
// Records change through one write path, Write: an ordered list of puts and
// deletes, each naming its table, applied all or nothing in one hold of the
// store lock, charged as one synchronous write and counted once in
// persistence.writes (per record in persistence.records, per byte stored in
// persistence.bytes), as one database transaction of the prototype would be,
// whatever tables it spans. Put is its one-record call; a deletion is a
// Change with Delete set. One unit of work is one write: a commit stores its
// replica records with a degraded write's history entry, a backup a received
// batch's records with the threat changes it carries, a merged pull reply its
// records with its conflict resolutions, and the threat store removes a
// threat's three records in one.
//
// A record's bytes are the store's own. A write encodes its records under
// the store lock into the store's one encoding buffer and copies each into
// the buffer its key already holds, so rewriting a live key allocates
// nothing and the record written last time is overwritten, not left as
// garbage; and of two writes of one key, the one that takes the lock last
// stores what its value holds then. Get copies the record out before it
// decodes. No byte of a stored buffer is ever handed to a caller, which is
// what makes writing it in place safe.
//
// Lock order: the store lock comes before any lock a record's encoder takes
// (a replica's record reads it under the replication manager's lock), so no
// code may call the store while it holds such a lock.
package persistence

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"dedisys/internal/obs"
	"dedisys/internal/simtime"
	"dedisys/internal/transport"
)

// ErrNotFound reports a missing record.
var ErrNotFound = errors.New("persistence: record not found")

// CostModel simulates the latency of synchronous database access. Only
// writes cost time: the experiments charge the synchronous commit-time
// writes, and reads stay free.
type CostModel struct {
	// PerWrite is charged once per write, however many records it changes.
	PerWrite time.Duration
}

// Store is a node-local persistent store. It is safe for concurrent use.
type Store struct {
	cost CostModel
	obs  *obs.Observer

	// mu guards tables and the encoding scratch. It is taken before any lock
	// a record's encoder takes (see the package doc).
	mu     sync.RWMutex
	tables map[string]map[string][]byte
	enc    []byte // a write's records, encoded back to back; it keeps what it grew
	ends   []int  // where each change's encoding ends in enc

	reads   *obs.Counter
	writes  *obs.Counter
	records *obs.Counter
	bytes   *obs.Counter
}

// Option configures a Store.
type Option func(*Store)

// WithCost installs the latency cost model.
func WithCost(c CostModel) Option {
	return func(s *Store) { s.cost = c }
}

// WithObserver attaches the store to a shared observability scope; without
// it the store observes into a private registry.
func WithObserver(o *obs.Observer) Option {
	return func(s *Store) { s.obs = o }
}

// NewStore creates an empty store.
func NewStore(opts ...Option) *Store {
	s := &Store{tables: make(map[string]map[string][]byte)}
	for _, o := range opts {
		o(s)
	}
	if s.obs == nil {
		s.obs = obs.New()
	}
	s.reads = s.obs.Counter("persistence.reads")
	s.writes = s.obs.Counter("persistence.writes")
	s.records = s.obs.Counter("persistence.records")
	s.bytes = s.obs.Counter("persistence.bytes")
	return s
}

// Record is a value the store holds: AppendWire appends its wire form to dst
// and returns the extended slice, or reports false for a value the form
// cannot carry (and what it returns is not used). It must not keep dst.
type Record interface {
	AppendWire(dst []byte) ([]byte, bool)
}

// Reader is where Get decodes a record: ReadWire reads what its type's
// AppendWire wrote and reports malformed input through r.
type Reader interface {
	ReadWire(r *transport.WireReader)
}

// Change is one record change of a Write: Value's wire form stored under
// (Table, Key), or with Delete set the record there removed (deleting a
// missing record is not an error).
type Change struct {
	Table  string
	Key    string
	Value  Record
	Delete bool
}

// Write applies the changes in order, all or nothing, to whatever tables they
// name: every value is encoded first, under the store lock, and a failed
// encoding leaves every table and the counters as they were. Each encoding is
// then copied over the record its key already holds; the store keeps its own
// buffer per key and no value is referenced after Write returns. The write
// is charged PerWrite once, after the lock is released, and counts one
// persistence.writes, len(changes) persistence.records and the bytes it
// stored in persistence.bytes. A write of no changes is none: it is neither
// charged nor counted.
func (s *Store) Write(changes []Change) error {
	if len(changes) == 0 {
		return nil
	}
	n, err := s.apply(changes)
	if err != nil {
		return err
	}
	s.wrote(len(changes), n)
	return nil
}

// apply encodes the changes and applies them in one hold of s.mu; it returns
// the number of bytes it stored.
func (s *Store) apply(changes []Change) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.encodeLocked(changes); err != nil {
		return 0, err
	}
	var t map[string][]byte
	table, from := "", 0
	for i, c := range changes {
		if i == 0 || c.Table != table {
			table, t = c.Table, s.tables[c.Table]
		}
		to := s.ends[i]
		switch {
		case c.Delete:
			delete(t, c.Key)
		case t == nil:
			t = make(map[string][]byte)
			s.tables[table] = t
			fallthrough
		default:
			t[c.Key] = append(t[c.Key][:0], s.enc[from:to]...)
		}
		from = to
	}
	return len(s.enc), nil
}

// encodeLocked encodes the values of changes back to back into s.enc and
// records where each ends in s.ends; callers hold s.mu.
func (s *Store) encodeLocked(changes []Change) error {
	s.enc, s.ends = s.enc[:0], s.ends[:0]
	if len(changes) > 2 {
		// A write of many records (a merged pull reply, a batch of repairs)
		// grows the buffer once, to a little more than the records it
		// rewrites hold now, not by append's steps of a quarter.
		n := 0
		for _, c := range changes {
			n += len(s.tables[c.Table][c.Key])
		}
		s.enc = slices.Grow(s.enc, n+n/8)
	}
	for _, c := range changes {
		if !c.Delete {
			out, ok := c.Value.AppendWire(s.enc)
			if !ok {
				return fmt.Errorf("persistence: encode %s/%s: a %T holds a value its wire form cannot carry", c.Table, c.Key, c.Value)
			}
			s.enc = out
		}
		s.ends = append(s.ends, len(s.enc))
	}
	return nil
}

// wrote charges and counts one write of n records, size bytes in all.
func (s *Store) wrote(n, size int) {
	simtime.Charge(s.cost.PerWrite)
	s.writes.Add(1)
	s.records.Add(int64(n))
	s.bytes.Add(int64(size))
}

// Put stores v's wire form under (table, key): a Write of one change.
func (s *Store) Put(table, key string, v Record) error {
	c := [1]Change{{Table: table, Key: key, Value: v}}
	return s.Write(c[:])
}

// Get decodes the record at (table, key) into out, which must read the whole
// record: bytes left over fail it as malformed input does. The record is
// copied out under the read lock, as a concurrent Put rewrites the stored
// buffer in place, and the copy, the caller's own, is decoded after it.
func (s *Store) Get(table, key string, out Reader) error {
	s.reads.Add(1)
	s.mu.RLock()
	data, ok := s.tables[table][key]
	data = slices.Clone(data)
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	}
	var r transport.WireReader
	r.Reset(data)
	if out.ReadWire(&r); r.Err() == nil && r.Len() > 0 {
		r.Fail("%d bytes after the record", r.Len())
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("persistence: decode %s/%s: %w", table, key, err)
	}
	return nil
}

// Has reports whether a record exists without decoding it.
func (s *Store) Has(table, key string) bool {
	s.reads.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.tables[table][key]
	return ok
}

// Keys returns the sorted keys of a table.
func (s *Store) Keys(table string) []string {
	s.reads.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.tables[table]))
	for k := range s.tables[table] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of records in a table.
func (s *Store) Len(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables[table])
}

// DropTable removes a whole table, a write of the records it held; a table
// that does not exist is no write.
func (s *Store) DropTable(table string) {
	s.mu.Lock()
	t, ok := s.tables[table]
	delete(s.tables, table)
	s.mu.Unlock()
	if ok {
		s.wrote(len(t), 0)
	}
}
