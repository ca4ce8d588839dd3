package repository

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"dedisys/internal/constraint"
	"dedisys/internal/obs"
)

// counter reads a counter of o's registry; a name nothing registered fails
// the test instead of reading 0.
func counter(t *testing.T, o *obs.Observer, name string) int64 {
	t.Helper()
	v, ok := o.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q registered", name)
	}
	return v
}

func meta(name, class, method string, t constraint.Type) constraint.Meta {
	return constraint.Meta{
		Name:         name,
		Type:         t,
		Priority:     constraint.Tradeable,
		MinDegree:    constraint.Uncheckable,
		NeedsContext: true,
		ContextClass: class,
		Affected: []constraint.AffectedMethod{
			{Class: class, Method: method, Prep: constraint.CalledObjectIsContext{}},
		},
	}
}

func trueConstraint() constraint.Constraint {
	return constraint.Func(func(ctx constraint.Context) (bool, error) { return true, nil })
}

func TestRegisterLookup(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := fmt.Sprintf("cached=%v", cached)
		t.Run(name, func(t *testing.T) {
			o := obs.New()
			opts := []Option{WithObserver(o)}
			if cached {
				opts = append(opts, WithCache())
			}
			r := New(opts...)
			if r.cached != cached {
				t.Fatalf("cached = %v", r.cached)
			}
			if err := r.Register(meta("C1", "Flight", "SellTickets", constraint.HardInvariant), trueConstraint()); err != nil {
				t.Fatal(err)
			}
			if err := r.Register(meta("C2", "Flight", "SellTickets", constraint.Pre), trueConstraint()); err != nil {
				t.Fatal(err)
			}
			if err := r.Register(meta("C3", "Alarm", "SetAlarmKind", constraint.HardInvariant), trueConstraint()); err != nil {
				t.Fatal(err)
			}

			got := r.LookupAffected("Flight", "SellTickets", constraint.HardInvariant)
			if len(got) != 1 || got[0].Meta.Name != "C1" {
				t.Fatalf("lookup hard = %v", names(got))
			}
			got = r.LookupAffected("Flight", "SellTickets", constraint.Pre)
			if len(got) != 1 || got[0].Meta.Name != "C2" {
				t.Fatalf("lookup pre = %v", names(got))
			}
			if got := r.LookupAffected("Flight", "Nope", constraint.Pre); len(got) != 0 {
				t.Fatalf("lookup miss = %v", names(got))
			}

			// Repeat to exercise cache hits.
			for i := 0; i < 3; i++ {
				got = r.LookupAffected("Flight", "SellTickets", constraint.HardInvariant)
				if len(got) != 1 {
					t.Fatalf("repeat lookup = %v", names(got))
				}
			}
			searches, hits := counter(t, o, "repository.searches"), counter(t, o, "repository.cache_hits")
			if searches != 6 {
				t.Fatalf("searches = %d, want 6", searches)
			}
			if cached && hits != 3 {
				t.Fatalf("cache hits = %d, want 3", hits)
			}
			if !cached && hits != 0 {
				t.Fatalf("cache hits = %d, want 0", hits)
			}
			r.LookupAffected("Flight", "SellTickets", constraint.HardInvariant)
			if after := counter(t, o, "repository.searches"); after-searches != 1 {
				t.Fatalf("searches before = %d, after one more lookup = %d", searches, after)
			}
			if after := counter(t, o, "repository.cache_hits"); cached && after-hits != 1 || !cached && after != hits {
				t.Fatalf("cache hits before = %d, after one more lookup = %d", hits, after)
			}
		})
	}
}

func names(regs []*Registered) []string {
	out := make([]string, len(regs))
	for i, r := range regs {
		out[i] = r.Meta.Name
	}
	return out
}

// TestDuplicateAndUnregister: a second registration under a taken name is
// refused and leaves the first in place.
func TestDuplicateAndUnregister(t *testing.T) {
	r := New()
	m := meta("C1", "F", "SetX", constraint.HardInvariant)
	if err := r.Register(m, trueConstraint()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(m, trueConstraint()); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate err = %v", err)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	if got := r.LookupAffected("F", "SetX", constraint.HardInvariant); len(got) != 1 || got[0].Meta.Name != "C1" {
		t.Fatalf("lookup after duplicate = %v, want [C1]", names(got))
	}
}

func TestRegisterRejectsInvalid(t *testing.T) {
	r := New()
	if err := r.Register(constraint.Meta{}, trueConstraint()); err == nil {
		t.Fatal("empty meta accepted")
	}
	if err := r.Register(meta("C1", "F", "SetX", constraint.HardInvariant), nil); err == nil {
		t.Fatal("nil impl accepted")
	}
}

func TestEnableDisable(t *testing.T) {
	r := New(WithCache())
	if err := r.Register(meta("C1", "F", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then disable: the cached slice must filter.
	if got := r.LookupAffected("F", "SetX", constraint.HardInvariant); len(got) != 1 {
		t.Fatalf("warm lookup = %v", names(got))
	}
	if err := r.SetEnabled("C1", false); err != nil {
		t.Fatal(err)
	}
	if got := r.LookupAffected("F", "SetX", constraint.HardInvariant); len(got) != 0 {
		t.Fatalf("disabled still returned: %v", names(got))
	}
	if err := r.SetEnabled("C1", true); err != nil {
		t.Fatal(err)
	}
	if got := r.LookupAffected("F", "SetX", constraint.HardInvariant); len(got) != 1 {
		t.Fatalf("re-enabled missing: %v", names(got))
	}
	if err := r.SetEnabled("nope", true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetEnabled missing err = %v", err)
	}
	reg, err := r.Get("C1")
	if err != nil || !reg.Enabled() {
		t.Fatalf("Get = %v, %v", reg, err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing err = %v", err)
	}
}

func TestRegistrationInvalidatesCache(t *testing.T) {
	r := New(WithCache())
	if err := r.Register(meta("C1", "F", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
		t.Fatal(err)
	}
	if got := r.LookupAffected("F", "SetX", constraint.HardInvariant); len(got) != 1 {
		t.Fatal("warm lookup failed")
	}
	if err := r.Register(meta("C2", "F", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
		t.Fatal(err)
	}
	if got := r.LookupAffected("F", "SetX", constraint.HardInvariant); len(got) != 2 {
		t.Fatalf("stale cache after register: %v", names(got))
	}
	if err := r.SetEnabled("C1", false); err != nil {
		t.Fatal(err)
	}
	if got := r.LookupAffected("F", "SetX", constraint.HardInvariant); len(got) != 1 || got[0].Meta.Name != "C2" {
		t.Fatalf("stale cache after disable: %v", names(got))
	}
}

func TestInvariantsOfClass(t *testing.T) {
	r := New()
	if err := r.Register(meta("H", "Flight", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(meta("S", "Flight", "SetX", constraint.SoftInvariant), trueConstraint()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(meta("P", "Flight", "SetX", constraint.Pre), trueConstraint()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(meta("O", "Other", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
		t.Fatal(err)
	}
	got := r.InvariantsOfClass("Flight")
	if len(got) != 2 {
		t.Fatalf("invariants = %v", names(got))
	}
	if err := r.SetEnabled("H", false); err != nil {
		t.Fatal(err)
	}
	got = r.InvariantsOfClass("Flight")
	if len(got) != 1 || got[0].Meta.Name != "S" {
		t.Fatalf("invariants after disable = %v", names(got))
	}
}

func TestNames(t *testing.T) {
	r := New()
	for _, n := range []string{"Z", "A", "M"} {
		if err := r.Register(meta(n, "F", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Names()
	if len(got) != 3 || got[0] != "A" || got[1] != "M" || got[2] != "Z" {
		t.Fatalf("Names = %v", got)
	}
}

// Property: for any registration set, the cached and uncached repositories
// return the same lookup results.
func TestQuickCachedEquivalence(t *testing.T) {
	type regSpec struct {
		Name, Class, Method uint8
		Type                uint8
	}
	f := func(specs []regSpec, queries []regSpec) bool {
		plain := New()
		cached := New(WithCache())
		for i, s := range specs {
			m := meta(
				fmt.Sprintf("c%d", i),
				fmt.Sprintf("class%d", s.Class%4),
				fmt.Sprintf("m%d", s.Method%4),
				constraint.Type(s.Type%5+1),
			)
			if err := plain.Register(m, trueConstraint()); err != nil {
				return false
			}
			if err := cached.Register(m, trueConstraint()); err != nil {
				return false
			}
		}
		for _, q := range queries {
			class := fmt.Sprintf("class%d", q.Class%4)
			method := fmt.Sprintf("m%d", q.Method%4)
			ctype := constraint.Type(q.Type%5 + 1)
			// Query twice to exercise both the cache-fill and cache-hit paths.
			for i := 0; i < 2; i++ {
				a := names(plain.LookupAffected(class, method, ctype))
				b := names(cached.LookupAffected(class, method, ctype))
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The dissertation measures lookups of 0.25–0.52 µs independent of repository
// size for the optimized repository; this benchmark regenerates that table
// (§2.3.2) for 25/50/100 classes × 10/25/50 methods.
func BenchmarkRepositoryLookup(b *testing.B) {
	for _, classes := range []int{25, 50, 100} {
		for _, methods := range []int{10, 25, 50} {
			b.Run(fmt.Sprintf("classes=%d/methods=%d", classes, methods), func(b *testing.B) {
				r := New(WithCache())
				for c := 0; c < classes; c++ {
					for m := 0; m < methods; m++ {
						name := fmt.Sprintf("c%d-m%d", c, m)
						if err := r.Register(meta(name, fmt.Sprintf("Class%d", c), fmt.Sprintf("SetM%d", m), constraint.HardInvariant), trueConstraint()); err != nil {
							b.Fatal(err)
						}
					}
				}
				// Warm cache.
				r.LookupAffected("Class0", "SetM0", constraint.HardInvariant)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.LookupAffected("Class0", "SetM0", constraint.HardInvariant)
				}
			})
		}
	}
}
