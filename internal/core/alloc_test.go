//go:build !race

package core

import (
	"testing"
	"unsafe"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
)

// TestValidationAllocs: the CCMgr's share of one validated write is the
// validation context alone with a called-object context, and the context
// plus the access list grown by the second access with a local reference
// context — 3 and 4 while a closure resolved the context and the first
// access allocated the list. The share is the difference between one
// invocation with the hard invariant registered and one without. Not built
// under -race, whose runtime allocates on paths the production build does
// not.
func TestValidationAllocs(t *testing.T) {
	if size := unsafe.Sizeof(valContext{}); size > 208 {
		t.Errorf("valContext is %d B; the first access inline keeps it in the 208 B size class", size)
	}
	for _, tc := range []struct {
		name string
		prep constraint.ContextPreparer
		want float64
	}{
		{"called object", constraint.CalledObjectIsContext{}, 1},
		{"local reference", constraint.ReferenceIsContext{Attr: "report"}, 2},
	} {
		if got := writeAllocs(t, tc.prep) - writeAllocs(t, nil); got != tc.want {
			t.Errorf("%s context: the validation costs %.0f allocations, want %.0f", tc.name, got, tc.want)
		}
	}
}

// writeAllocs counts the allocations of one SetSold on f1, validated against
// a hard invariant with the given preparer, or unconstrained with nil.
func writeAllocs(t *testing.T, prep constraint.ContextPreparer) float64 {
	env := newLocalEnv(t)
	if prep != nil {
		meta := constraint.Meta{
			Name: "C1", Type: constraint.HardInvariant,
			Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
			NeedsContext: true, ContextClass: "Flight",
			Affected: []constraint.AffectedMethod{{Class: "Flight", Method: "SetSold", Prep: prep}},
		}
		if err := env.repo.Register(meta, constraint.Func(func(ctx constraint.Context) (bool, error) {
			return ctx.ContextObject() != nil, nil
		})); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []*object.Entity{
		object.New("Flight", "f1", object.State{"sold": int64(0), "report": object.ID("f2")}),
		object.New("Flight", "f2", object.State{"sold": int64(0)}),
	} {
		if err := env.reg.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	sold := int64(1000)
	return testing.AllocsPerRun(500, func() {
		sold++
		if err := env.invoke(t, "f1", "SetSold", sold); err != nil {
			t.Fatal(err)
		}
	})
}
