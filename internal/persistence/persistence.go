// Package persistence provides the per-node persistent store of Figure 4.1,
// replacing the prototype's MySQL database. It stores JSON-encoded records
// in named tables and charges a configurable synchronous write cost so that
// the evaluation reproduces the shape of database-bound operations
// (persisting consistency threats, replica metadata, and state history).
//
// A record's bytes are the store's own. Put copies the encoding into the
// buffer the key already holds, so rewriting a live key allocates nothing
// and the record written last time is overwritten, not left as garbage;
// Get copies the record out before it decodes. No byte of a stored buffer is
// ever handed to a caller, which is what makes writing it in place safe.
package persistence

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dedisys/internal/obs"
	"dedisys/internal/simtime"
)

// ErrNotFound reports a missing record.
var ErrNotFound = errors.New("persistence: record not found")

// CostModel simulates the latency of synchronous database access. Only
// writes cost time: the experiments charge the synchronous commit-time
// writes, and reads stay free.
type CostModel struct {
	// PerWrite is charged on every Put and Delete.
	PerWrite time.Duration
}

// Store is a node-local persistent store. It is safe for concurrent use.
type Store struct {
	cost CostModel
	obs  *obs.Observer

	mu     sync.RWMutex
	tables map[string]map[string][]byte

	reads  *obs.Counter
	writes *obs.Counter
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
	return s
}

// appender is a record type that encodes itself: AppendJSON appends the
// record's JSON to dst and returns the extended slice, or an error, in which
// case what it returns is not used. It must append exactly what json.Marshal
// would store — compact, HTML-escaped, object keys in byte order — and must
// not keep dst.
type appender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// scratch holds the buffers a record is encoded into on its way in and copied
// into on its way out: encoding and decoding run outside the store lock, on
// any number of goroutines at once, so the buffer cannot be a field of the
// Store, and a fresh one per call is the allocation Put exists to avoid.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// AppendString appends s to dst as the JSON string encoding/json writes for
// it, object keys included. Self-encoding record types quote through it so
// that the escaping rule of the stored format has one copy.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		// Anything but printable ASCII other than the quote, the backslash
		// and <, >, & may need escaping; such strings are rare in records.
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// Put stores the JSON encoding of v under (table, key). A record type with an
// AppendJSON method (see appender) encodes itself into a recycled buffer,
// skipping json.Marshal's reflection, its re-scan of the result and its fresh
// result slice; anything else goes through json.Marshal. Either way the
// encoding happens before the lock is taken, a failed one leaves the store
// and its counters as they were, and the bytes are then copied over the
// record the key already holds: the store keeps its own buffer per key and
// the caller's value is not referenced after Put returns.
func (s *Store) Put(table, key string, v any) error {
	var data []byte
	var err error
	if a, ok := v.(appender); ok {
		buf := scratch.Get().(*[]byte)
		defer scratch.Put(buf)
		if data, err = a.AppendJSON((*buf)[:0]); err == nil {
			*buf = data // keep what the encoder grew
		}
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		return fmt.Errorf("persistence: encode %s/%s: %w", table, key, err)
	}
	simtime.Charge(s.cost.PerWrite)
	s.writes.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok {
		t = make(map[string][]byte)
		s.tables[table] = t
	}
	t[key] = append(t[key][:0], data...)
	return nil
}

// Get decodes the record at (table, key) into out. The record is copied out
// under the read lock and the copy is decoded after it: a concurrent Put
// rewrites the stored buffer in place, so decoding it directly would read a
// torn record. The copy lives in a recycled buffer; encoding/json copies
// whatever the target keeps (strings, json.RawMessage), so nothing decoded
// points into it.
func (s *Store) Get(table, key string, out any) error {
	s.reads.Add(1)
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	s.mu.RLock()
	data, ok := s.tables[table][key]
	if ok {
		*buf = append((*buf)[:0], data...)
	}
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	}
	if err := json.Unmarshal(*buf, out); err != nil {
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

// Delete removes the record at (table, key). Deleting a missing record is
// not an error.
func (s *Store) Delete(table, key string) {
	simtime.Charge(s.cost.PerWrite)
	s.writes.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tables[table], key)
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

// DropTable removes a whole table.
func (s *Store) DropTable(table string) {
	simtime.Charge(s.cost.PerWrite)
	s.writes.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tables, table)
}
