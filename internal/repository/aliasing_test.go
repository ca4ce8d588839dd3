package repository

import (
	"fmt"
	"sync"
	"testing"

	"dedisys/internal/constraint"
)

// LookupAffected returns a shared read-only view on the cache-hit path.
// Appending must never corrupt the cache (the PR 1 aliasing bug, now
// prevented by cap-clamped immutable views instead of a copy per call), and
// the view must survive a caller-side append + reslice untouched.
func TestLookupAffectedSharedViewSurvivesAppend(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			var r *Repository
			if cached {
				r = New(WithCache())
			} else {
				r = New()
			}
			for _, n := range []string{"C1", "C2"} {
				if err := r.Register(meta(n, "F", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the cache, then append and mutate the *extended* slice:
			// the first append must have copied out of the shared view.
			got := r.LookupAffected("F", "SetX", constraint.HardInvariant)
			if len(got) != 2 {
				t.Fatalf("lookup = %v", names(got))
			}
			grown := append(got, got[0])
			grown[0], grown[1] = grown[1], grown[0]
			grown[2] = nil

			again := r.LookupAffected("F", "SetX", constraint.HardInvariant)
			if len(again) != 2 || again[0] == nil || again[1] == nil {
				t.Fatalf("cache corrupted by caller append: %v", again)
			}
			if again[0].Meta.Name != "C1" || again[1].Meta.Name != "C2" {
				t.Fatalf("cache order corrupted: %v", names(again))
			}
		})
	}
}

// TestLookupAffectedSharesCacheHit pins the optimisation itself: two
// cache-hit lookups return the same backing array (no per-call copy), and
// the shared view has cap == len so an append cannot write into it.
func TestLookupAffectedSharesCacheHit(t *testing.T) {
	r := New(WithCache())
	if err := r.Register(meta("C1", "F", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
		t.Fatal(err)
	}
	first := r.LookupAffected("F", "SetX", constraint.HardInvariant) // miss: fills cache
	second := r.LookupAffected("F", "SetX", constraint.HardInvariant)
	third := r.LookupAffected("F", "SetX", constraint.HardInvariant)
	if len(second) != 1 || len(third) != 1 {
		t.Fatalf("lookups = %v / %v", names(second), names(third))
	}
	if &second[0] != &third[0] {
		t.Error("cache-hit lookups do not share a view (copying per call again)")
	}
	if cap(second) != len(second) {
		t.Errorf("shared view cap = %d, len = %d; append would scribble on the cache", cap(second), len(second))
	}
	_ = first
}

// Appending to a lookup result must never clobber a neighbouring entry of
// the cached backing array (the full-cap aliasing variant of the bug).
func TestLookupAffectedAppendDoesNotAliasCache(t *testing.T) {
	r := New(WithCache())
	for _, n := range []string{"C1", "C2", "C3"} {
		if err := r.Register(meta(n, "F", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SetEnabled("C3", false); err != nil {
		t.Fatal(err)
	}
	got := r.LookupAffected("F", "SetX", constraint.HardInvariant) // C1, C2
	got = append(got, got[0])                                      // must not write into shared backing storage
	_ = got
	if err := r.SetEnabled("C3", true); err != nil {
		t.Fatal(err)
	}
	again := r.LookupAffected("F", "SetX", constraint.HardInvariant)
	if len(again) != 3 || again[2].Meta.Name != "C3" {
		t.Fatalf("cached slice clobbered by append: %v", names(again))
	}
}

// TestSetEnabledInvalidatesSharedView: disabling a constraint must retire
// the cached filtered view (epoch copy-on-write), not mutate it under
// readers holding the old slice.
func TestSetEnabledInvalidatesSharedView(t *testing.T) {
	r := New(WithCache())
	for _, n := range []string{"C1", "C2"} {
		if err := r.Register(meta(n, "F", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
			t.Fatal(err)
		}
	}
	before := r.LookupAffected("F", "SetX", constraint.HardInvariant)
	if len(before) != 2 {
		t.Fatalf("before = %v", names(before))
	}
	if err := r.SetEnabled("C1", false); err != nil {
		t.Fatal(err)
	}
	after := r.LookupAffected("F", "SetX", constraint.HardInvariant)
	if len(after) != 1 || after[0].Meta.Name != "C2" {
		t.Fatalf("after disable = %v, want [C2]", names(after))
	}
	// The old view a reader already holds is untouched.
	if len(before) != 2 || before[0].Meta.Name != "C1" || before[1].Meta.Name != "C2" {
		t.Fatalf("published view mutated in place: %v", names(before))
	}
}

// -race coverage: concurrent Register/SetEnabled/LookupAffected
// over both repository variants. Results are read-only views, so readers
// only iterate them.
func TestConcurrentRepositoryAccess(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			var r *Repository
			if cached {
				r = New(WithCache())
			} else {
				r = New()
			}
			// A stable population so lookups always have something to find.
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("stable%d", i)
				if err := r.Register(meta(name, "F", "SetX", constraint.HardInvariant), trueConstraint()); err != nil {
					t.Fatal(err)
				}
			}
			const workers = 4
			const iters = 300
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						churn := fmt.Sprintf("churn%d-%d", w, i/4)
						switch i % 4 {
						case 0:
							_ = r.Register(meta(churn, "F", "SetX", constraint.HardInvariant), trueConstraint())
						case 1:
							_ = r.SetEnabled(fmt.Sprintf("stable%d", i%4), i%8 < 4)
						case 2:
							for _, reg := range r.LookupAffected("F", "SetX", constraint.HardInvariant) {
								if reg == nil {
									t.Error("nil registration in lookup result")
								}
							}
						case 3:
							_ = r.SetEnabled(churn, false)
						}
					}
				}(w)
			}
			wg.Wait()
			for i := 0; i < 4; i++ {
				if err := r.SetEnabled(fmt.Sprintf("stable%d", i), true); err != nil {
					t.Fatal(err)
				}
			}
			got := r.LookupAffected("F", "SetX", constraint.HardInvariant)
			if len(got) < 4 {
				t.Fatalf("stable registrations lost: %v", names(got))
			}
		})
	}
}
