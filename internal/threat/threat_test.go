package threat

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/persistence"
)

func sample(name string, ctx object.ID) Threat {
	return Threat{
		Constraint: name,
		ContextID:  ctx,
		Degree:     constraint.PossiblySatisfied,
		Affected: []AffectedObject{
			{ID: ctx, Class: "Flight", Staleness: constraint.Staleness{PossiblyStale: true, Version: 3, EstimatedLatest: 4}},
		},
		AppData: map[string]string{"note": "x"},
		TxID:    7,
	}
}

func TestIdentity(t *testing.T) {
	a := sample("C1", "f1")
	b := sample("C1", "f1")
	c := sample("C1", "f2")
	d := sample("C2", "f1")
	if a.Identity() != b.Identity() {
		t.Fatal("identical threats differ")
	}
	if a.Identity() == c.Identity() || a.Identity() == d.Identity() {
		t.Fatal("distinct threats collide")
	}
}

func TestIdenticalOncePolicy(t *testing.T) {
	backing := persistence.NewStore()
	s := NewStore(backing, IdenticalOnce)
	if s.Policy() != IdenticalOnce {
		t.Fatalf("policy = %v", s.Policy())
	}

	first, isNew, err := s.Add(sample("C1", "f1"))
	if err != nil || !isNew {
		t.Fatalf("first add: %v %v", isNew, err)
	}
	if first.Seq != 1 || first.Count != 1 {
		t.Fatalf("first = %+v", first)
	}
	writesAfterFirst := backing.Stats().Writes
	if writesAfterFirst != 3 {
		t.Fatalf("first add writes = %d, want 3", writesAfterFirst)
	}

	second, isNew, err := s.Add(sample("C1", "f1"))
	if err != nil || isNew {
		t.Fatalf("identical add: %v %v", isNew, err)
	}
	if second.Count != 2 || second.Seq != 1 {
		t.Fatalf("folded = %+v", second)
	}
	st := backing.Stats()
	if st.Writes != writesAfterFirst {
		t.Fatalf("identical add wrote %d records", st.Writes-writesAfterFirst)
	}
	if st.Reads == 0 {
		t.Fatal("identical add should read to detect the duplicate")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}

	// A different context object is a distinct threat.
	if _, isNew, err = s.Add(sample("C1", "f2")); err != nil || !isNew {
		t.Fatalf("distinct add: %v %v", isNew, err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestFullHistoryPolicy(t *testing.T) {
	backing := persistence.NewStore()
	s := NewStore(backing, FullHistory)
	if _, isNew, err := s.Add(sample("C1", "f1")); err != nil || !isNew {
		t.Fatalf("first: %v %v", isNew, err)
	}
	w1 := backing.Stats().Writes
	if w1 != 3 {
		t.Fatalf("first add writes = %d, want 3", w1)
	}
	if _, isNew, err := s.Add(sample("C1", "f1")); err != nil || !isNew {
		t.Fatalf("second: %v %v", isNew, err)
	}
	w2 := backing.Stats().Writes - w1
	if w2 != 2 {
		t.Fatalf("identical add writes = %d, want 2", w2)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.ByIdentity(sample("C1", "f1").Identity()); len(got) != 2 {
		t.Fatalf("by identity = %d", len(got))
	}
	if ids := s.Identities(); len(ids) != 1 {
		t.Fatalf("identities = %v", ids)
	}
}

func TestRemoveIdentity(t *testing.T) {
	s := NewStore(persistence.NewStore(), FullHistory)
	for i := 0; i < 3; i++ {
		if _, _, err := s.Add(sample("C1", "f1")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Add(sample("C2", "f2")); err != nil {
		t.Fatal(err)
	}
	removed := s.RemoveIdentity(sample("C1", "f1").Identity())
	if len(removed) != 3 || removed[0].Seq != 1 || removed[2].Seq != 3 {
		t.Fatalf("removed = %+v", removed)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	all := s.All()
	if len(all) != 1 || all[0].Constraint != "C2" {
		t.Fatalf("remaining = %+v", all)
	}
}

func TestRemoveSingle(t *testing.T) {
	s := NewStore(persistence.NewStore(), FullHistory)
	a, _, _ := s.Add(sample("C1", "f1"))
	b, _, _ := s.Add(sample("C1", "f1"))
	s.Remove(a.Seq)
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.ByIdentity(a.Identity()); len(got) != 1 || got[0].Seq != b.Seq {
		t.Fatalf("remaining = %+v", got)
	}
	s.Remove(b.Seq)
	if len(s.Identities()) != 0 {
		t.Fatal("identity map not cleaned")
	}
	s.Remove(999) // missing is a no-op
}

// TestRolledBackNewThreatLeavesNoRecord: Remove is the undo of a newly stored
// threat when its transaction rolls back. It deletes the three records Add
// wrote, at the price of three deletes and no read, and the table keeps only
// the records of the other threat.
func TestRolledBackNewThreatLeavesNoRecord(t *testing.T) {
	backing := persistence.NewStore()
	s := NewStore(backing, IdenticalOnce)
	if _, _, err := s.Add(sample("C2", "f2")); err != nil {
		t.Fatal(err)
	}
	kept := backing.Keys(table)
	added, isNew, err := s.Add(sample("C1", "f1"))
	if err != nil || !isNew {
		t.Fatalf("add = %v, %v", isNew, err)
	}
	before := backing.Stats()
	s.Remove(added.Seq)
	after := backing.Stats()
	if r, w := after.Reads-before.Reads, after.Writes-before.Writes; r != 0 || w != 3 {
		t.Errorf("rollback: %d reads, %d writes; want 0, 3", r, w)
	}
	if got := backing.Keys(table); !slices.Equal(got, kept) {
		t.Errorf("table after the rollback = %v, want the other threat's %v", got, kept)
	}
}

func TestClear(t *testing.T) {
	s := NewStore(persistence.NewStore(), IdenticalOnce)
	_, _, _ = s.Add(sample("C1", "f1"))
	s.Clear()
	if s.Len() != 0 || len(s.All()) != 0 {
		t.Fatal("clear incomplete")
	}
}

func TestDefaultPolicy(t *testing.T) {
	s := NewStore(persistence.NewStore(), 0)
	if s.Policy() != IdenticalOnce {
		t.Fatalf("default policy = %v", s.Policy())
	}
	s.SetPolicy(FullHistory)
	if s.Policy() != FullHistory {
		t.Fatalf("policy after set = %v", s.Policy())
	}
}

func negCtx(prio constraint.Priority, min, degree constraint.Degree) *NegotiationContext {
	return &NegotiationContext{
		Constraint: constraint.Meta{
			Name:      "C1",
			Type:      constraint.HardInvariant,
			Priority:  prio,
			MinDegree: min,
		},
		Degree: degree,
	}
}

func TestNegotiateNonTradeableAlwaysRejected(t *testing.T) {
	nc := negCtx(constraint.NonTradeable, constraint.Uncheckable, constraint.PossiblySatisfied)
	// Even a dynamic handler must not override a non-tradeable constraint.
	dyn := func(*NegotiationContext) Decision { return Accept }
	if got := Negotiate(nc, dyn, 0); got != Reject {
		t.Fatalf("non-tradeable accepted: %v", got)
	}
}

func TestNegotiateDynamicPreferredOverStatic(t *testing.T) {
	// Static config would accept (min uncheckable), dynamic handler rejects.
	nc := negCtx(constraint.Tradeable, constraint.Uncheckable, constraint.PossiblySatisfied)
	dyn := func(*NegotiationContext) Decision { return Reject }
	if got := Negotiate(nc, dyn, 0); got != Reject {
		t.Fatalf("dynamic not preferred: %v", got)
	}
	if got := Negotiate(nc, nil, 0); got != Accept {
		t.Fatalf("static fallback: %v", got)
	}
}

func TestNegotiateStaticMinDegree(t *testing.T) {
	cases := []struct {
		min, degree constraint.Degree
		want        Decision
	}{
		{constraint.PossiblySatisfied, constraint.PossiblySatisfied, Accept},
		{constraint.PossiblySatisfied, constraint.PossiblyViolated, Reject},
		{constraint.PossiblyViolated, constraint.PossiblyViolated, Accept},
		{constraint.PossiblyViolated, constraint.Uncheckable, Reject},
		{constraint.Uncheckable, constraint.Uncheckable, Accept},
	}
	for _, c := range cases {
		nc := negCtx(constraint.Tradeable, c.min, c.degree)
		if got := Negotiate(nc, nil, 0); got != c.want {
			t.Errorf("min=%v degree=%v: got %v, want %v", c.min, c.degree, got, c.want)
		}
	}
}

func TestNegotiateDefaultMinUsedWhenUnset(t *testing.T) {
	nc := negCtx(constraint.Tradeable, 0, constraint.PossiblySatisfied)
	if got := Negotiate(nc, nil, constraint.Uncheckable); got != Accept {
		t.Fatalf("default min accept: %v", got)
	}
	if got := Negotiate(nc, nil, constraint.Satisfied); got != Reject {
		t.Fatalf("default min reject: %v", got)
	}
	// No tolerance configured anywhere: threats are rejected.
	if got := Negotiate(nc, nil, 0); got != Reject {
		t.Fatalf("no-config: %v", got)
	}
}

func TestNegotiateFreshness(t *testing.T) {
	nc := negCtx(constraint.Tradeable, constraint.Uncheckable, constraint.PossiblySatisfied)
	nc.Constraint.Freshness = []constraint.FreshnessCriterion{{Class: "Alarm", MaxAge: 2}}
	nc.Affected = []AffectedObject{
		{ID: "a1", Class: "Alarm", Staleness: constraint.Staleness{Version: 5, EstimatedLatest: 7}},
	}
	if got := Negotiate(nc, nil, 0); got != Accept {
		t.Fatalf("fresh enough rejected: %v", got)
	}
	nc.Affected[0].Staleness.EstimatedLatest = 9 // 4 missed > maxAge 2
	if got := Negotiate(nc, nil, 0); got != Reject {
		t.Fatalf("too stale accepted: %v", got)
	}
	// Unbounded class is ignored.
	nc.Affected[0].Class = "Other"
	if got := Negotiate(nc, nil, 0); got != Accept {
		t.Fatalf("unbounded class rejected: %v", got)
	}
}

// Property: under IdenticalOnce the store size equals the number of distinct
// identities regardless of insertion order or multiplicity.
func TestQuickIdenticalOnceDedup(t *testing.T) {
	f := func(picks []uint8) bool {
		s := NewStore(persistence.NewStore(), IdenticalOnce)
		distinct := make(map[string]struct{})
		for _, p := range picks {
			name := string(rune('A' + p%3))
			ctx := object.ID(rune('x' + p%2))
			th := sample(name, ctx)
			distinct[th.Identity()] = struct{}{}
			if _, _, err := s.Add(th); err != nil {
				return false
			}
		}
		return s.Len() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if Accept.String() != "accept" || Reject.String() != "reject" {
		t.Fatal("Decision strings wrong")
	}
	if Decision(0).String() == "" {
		t.Fatal("unknown decision string empty")
	}
	if IdenticalOnce.String() != "identical-once" || FullHistory.String() != "full-history" {
		t.Fatal("StorePolicy strings wrong")
	}
	if StorePolicy(0).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}

// TestThreatStoreCosts pins §5.2's cost model, which Figures 5.6 and 5.8
// measure: a new threat writes its three records, an identical-once repeat
// folds at the price of exactly one read, and a full-history repeat writes two
// records.
func TestThreatStoreCosts(t *testing.T) {
	for _, c := range []struct {
		policy              StorePolicy
		repeatReads, repeat int64
	}{
		{IdenticalOnce, 1, 0},
		{FullHistory, 0, 2},
	} {
		backing := persistence.NewStore()
		s := NewStore(backing, c.policy)
		cost := func(th Threat) (reads, writes int64) {
			before := backing.Stats()
			if _, _, err := s.Add(th); err != nil {
				t.Fatal(err)
			}
			after := backing.Stats()
			return after.Reads - before.Reads, after.Writes - before.Writes
		}
		if r, w := cost(sample("C1", "f1")); r != 0 || w != 3 {
			t.Errorf("%v: new threat: %d reads, %d writes; want 0, 3", c.policy, r, w)
		}
		for i := 0; i < 3; i++ {
			if r, w := cost(sample("C1", "f1")); r != c.repeatReads || w != c.repeat {
				t.Errorf("%v: repeat %d: %d reads, %d writes; want %d, %d", c.policy, i, r, w, c.repeatReads, c.repeat)
			}
		}
		if r, w := cost(sample("C1", "f2")); r != 0 || w != 3 {
			t.Errorf("%v: another identity: %d reads, %d writes; want 0, 3", c.policy, r, w)
		}
	}
}

// TestConcurrentAddAndRemoveIdentity races adders of one identity against
// removers of it. A removal returns the records it took under the hold that
// took them, so a clearing transaction's undo can restore exactly those: every
// record an Add created is either returned by one removal or still in the
// store, never both and never lost, and the table holds the three records of
// each threat still in the store and nothing else.
func TestConcurrentAddAndRemoveIdentity(t *testing.T) {
	backing := persistence.NewStore()
	s := NewStore(backing, IdenticalOnce)
	s.SetOwner("n1")
	ident := sample("C1", "f1").Identity()
	const adders, removers, rounds = 4, 2, 200
	var (
		mu      sync.Mutex
		added   = map[int64]bool{}
		removed = map[int64]int{}
		wg      sync.WaitGroup
	)
	for i := 0; i < adders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				th, isNew, err := s.Add(sample("C1", "f1"))
				if err != nil {
					t.Error(err)
					return
				}
				if isNew {
					mu.Lock()
					added[th.Seq] = true
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < removers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				for _, th := range s.RemoveIdentity(ident) {
					mu.Lock()
					removed[th.Seq]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	left := map[int64]bool{}
	for _, th := range s.All() {
		left[th.Seq] = true
	}
	for seq := range added {
		if n := removed[seq]; n > 1 || n == 1 && left[seq] || n == 0 && !left[seq] {
			t.Errorf("record %d: removed %d times, in the store %v", seq, n, left[seq])
		}
	}
	for seq := range removed {
		if !added[seq] {
			t.Errorf("record %d removed but never added", seq)
		}
	}
	for seq := range left {
		if !added[seq] {
			t.Errorf("record %d in the store but never added", seq)
		}
	}
	if got, want := backing.Len(table), 3*len(left); got != want {
		t.Errorf("table holds %d records, want %d for %d threats", got, want, len(left))
	}
}
