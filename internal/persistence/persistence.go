// Package persistence provides the per-node persistent store of Figure 4.1,
// replacing the prototype's MySQL database. It stores JSON-encoded records
// in named tables and charges a configurable synchronous write cost so that
// the evaluation reproduces the shape of database-bound operations
// (persisting consistency threats, replica metadata, and state history).
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

// Stats counts store operations.
type Stats struct {
	Reads  int64
	Writes int64 // puts and deletes
}

// CostModel simulates the latency of synchronous database access.
type CostModel struct {
	// PerWrite is charged on every Put and Delete.
	PerWrite time.Duration
	// PerRead is charged on every Get and List.
	PerRead time.Duration
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

// Put stores the JSON encoding of v under (table, key). A record type that
// encodes itself (json.Marshaler) is stored as it returns, skipping
// json.Marshal's reflection and its re-scan of the result, so its MarshalJSON
// must return exactly what json.Marshal would store: compact and HTML-escaped.
func (s *Store) Put(table, key string, v any) error {
	var data []byte
	var err error
	if m, ok := v.(json.Marshaler); ok {
		data, err = m.MarshalJSON()
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
	t[key] = data
	return nil
}

// Get decodes the record at (table, key) into out.
func (s *Store) Get(table, key string, out any) error {
	simtime.Charge(s.cost.PerRead)
	s.reads.Add(1)
	s.mu.RLock()
	data, ok := s.tables[table][key]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, table, key)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("persistence: decode %s/%s: %w", table, key, err)
	}
	return nil
}

// Has reports whether a record exists without decoding it.
func (s *Store) Has(table, key string) bool {
	simtime.Charge(s.cost.PerRead)
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
	simtime.Charge(s.cost.PerRead)
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

// Stats returns the operation counters.
func (s *Store) Stats() Stats {
	return Stats{Reads: s.reads.Load(), Writes: s.writes.Load()}
}
