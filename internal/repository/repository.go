// Package repository implements the runtime constraint repository of
// §2.1.4/§4.2.2: all constraints of an application are registered here and
// can be queried by invoked class, method signature and constraint type.
// Constraints can be added, removed, enabled and disabled during runtime.
//
// Two lookup strategies mirror the dissertation's evaluation: a linear
// search over all registrations per query (the "non-optimized" repository)
// and an optimized variant that caches query results in a hash table keyed
// by (class, method, constraint type) (§2.2.1).
package repository

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dedisys/internal/constraint"
	"dedisys/internal/obs"
)

// Errors returned by the repository.
var (
	// ErrDuplicate reports a second registration under the same name.
	ErrDuplicate = errors.New("repository: constraint already registered")
	// ErrNotFound reports an operation on an unregistered constraint.
	ErrNotFound = errors.New("repository: constraint not registered")
)

// Registered pairs one constraint's metadata with its implementation and the
// runtime enabled flag.
type Registered struct {
	Meta constraint.Meta
	Impl constraint.Constraint

	enabled atomic.Bool
}

// Enabled reports whether the constraint currently participates in lookups.
func (r *Registered) Enabled() bool { return r.enabled.Load() }

// Option configures a Repository.
type Option func(*Repository)

// WithCache enables the optimized lookup cache (§2.2.1). Without it every
// lookup performs a linear scan over all registrations.
func WithCache() Option {
	return func(r *Repository) { r.cached = true }
}

// WithObserver attaches the repository to a shared observability scope;
// without it the repository observes into a private registry.
func WithObserver(o *obs.Observer) Option {
	return func(r *Repository) { r.obs = o }
}

// Repository is the runtime constraint repository. It is safe for concurrent
// use.
type Repository struct {
	cached bool
	obs    *obs.Observer

	mu     sync.RWMutex
	byName map[string]*Registered
	all    []*Registered // registration order for deterministic scans
	cache  map[lookupKey]*cacheEntry

	// enabledEpoch increments on every SetEnabled; cached filtered views
	// stamped with an older epoch are rebuilt on next use (copy-on-write).
	enabledEpoch atomic.Int64

	searches  *obs.Counter
	cacheHits *obs.Counter
	scanned   *obs.Counter
}

type lookupKey struct {
	class  string
	method string
	ctype  constraint.Type
}

// cacheEntry is one cached lookup result: the raw matches in registration
// order plus a lazily rebuilt enabled-only view. The view is immutable once
// published — readers on the cache-hit path share its slice without copying.
type cacheEntry struct {
	matches []*Registered
	view    atomic.Pointer[filteredView]
}

// filteredView is an immutable enabled-subset snapshot, valid for one
// enabled-epoch. Its slice has cap == len, so a caller appending to it
// reallocates instead of writing past the shared backing array.
type filteredView struct {
	epoch int64
	regs  []*Registered
}

// New creates a repository.
func New(opts ...Option) *Repository {
	r := &Repository{
		byName: make(map[string]*Registered),
		cache:  make(map[lookupKey]*cacheEntry),
	}
	for _, o := range opts {
		o(r)
	}
	if r.obs == nil {
		r.obs = obs.New()
	}
	r.searches = r.obs.Counter("repository.searches")
	r.cacheHits = r.obs.Counter("repository.cache_hits")
	r.scanned = r.obs.Counter("repository.scanned")
	return r
}

// Register adds a constraint. The constraint starts enabled.
func (r *Repository) Register(meta constraint.Meta, impl constraint.Constraint) error {
	if err := meta.Validate(); err != nil {
		return err
	}
	if impl == nil {
		return fmt.Errorf("repository: constraint %s has no implementation", meta.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[meta.Name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, meta.Name)
	}
	reg := &Registered{Meta: meta, Impl: impl}
	reg.enabled.Store(true)
	r.byName[meta.Name] = reg
	r.all = append(r.all, reg)
	r.invalidateLocked()
	return nil
}

// RegisterAll adds a batch of configured constraints.
func (r *Repository) RegisterAll(cs []constraint.Configured) error {
	for _, c := range cs {
		if err := r.Register(c.Meta, c.Impl); err != nil {
			return err
		}
	}
	return nil
}

// SetEnabled enables or disables a constraint at runtime (§2.1.4). Disabled
// constraints are skipped by lookups without being removed.
func (r *Repository) SetEnabled(name string, enabled bool) error {
	r.mu.RLock()
	reg, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	reg.enabled.Store(enabled)
	// Cached raw matches stay valid; bumping the epoch retires every cached
	// filtered view, which is rebuilt (copy-on-write) on its next use.
	r.enabledEpoch.Add(1)
	return nil
}

// Get returns a registered constraint by name.
func (r *Repository) Get(name string) (*Registered, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return reg, nil
}

// Names returns all registered constraint names, sorted.
func (r *Repository) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered constraints.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// LookupAffected returns the enabled constraints of the given type that are
// affected by an invocation of class.method, in registration order.
//
// The returned slice is a shared read-only view: on the cache-hit path it
// aliases an immutable cached snapshot, so callers must not modify elements
// in place. Appending is always safe — the view's cap equals its len, so the
// first append copies (the PR 1 aliasing guarantee, now by copy-on-write
// instead of a defensive copy per call; the hit path is allocation-free).
func (r *Repository) LookupAffected(class, method string, ctype constraint.Type) []*Registered {
	r.searches.Inc()
	key := lookupKey{class: class, method: method, ctype: ctype}
	if r.cached {
		r.mu.RLock()
		hit, ok := r.cache[key]
		r.mu.RUnlock()
		if ok {
			r.cacheHits.Inc()
			epoch := r.enabledEpoch.Load()
			if v := hit.view.Load(); v != nil && v.epoch == epoch {
				return v.regs
			}
			regs := filterEnabled(hit.matches)
			hit.view.Store(&filteredView{epoch: epoch, regs: regs})
			return regs
		}
	}
	r.mu.RLock()
	var matches []*Registered
	for _, reg := range r.all {
		if reg.Meta.Type != ctype {
			continue
		}
		for _, am := range reg.Meta.Affected {
			if am.Class == class && am.Method == method {
				matches = append(matches, reg)
				break
			}
		}
	}
	r.scanned.Add(int64(len(r.all)))
	r.mu.RUnlock()
	if r.cached {
		r.mu.Lock()
		if _, ok := r.cache[key]; !ok {
			r.cache[key] = &cacheEntry{matches: matches}
		}
		r.mu.Unlock()
	}
	return filterEnabled(matches)
}

// InvariantsOfClass returns all enabled invariant constraints (hard, soft and
// async) whose context class matches, used during reconciliation when
// constraints are re-enabled or revalidated per context object.
func (r *Repository) InvariantsOfClass(class string) []*Registered {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Registered
	for _, reg := range r.all {
		if !reg.Enabled() {
			continue
		}
		switch reg.Meta.Type {
		case constraint.HardInvariant, constraint.SoftInvariant, constraint.AsyncInvariant:
			if reg.Meta.ContextClass == class {
				out = append(out, reg)
			}
		}
	}
	return out
}

func (r *Repository) invalidateLocked() {
	if len(r.cache) > 0 {
		r.cache = make(map[lookupKey]*cacheEntry)
	}
}

// filterEnabled returns the enabled subset of regs in a freshly allocated
// slice with cap == len: the result may be published as a shared immutable
// view, and the cap clamp guarantees that a caller's append reallocates
// instead of scribbling past the shared backing array.
func filterEnabled(regs []*Registered) []*Registered {
	if len(regs) == 0 {
		return nil
	}
	out := make([]*Registered, 0, len(regs))
	for _, reg := range regs {
		if reg.Enabled() {
			out = append(out, reg)
		}
	}
	return out[:len(out):len(out)]
}
