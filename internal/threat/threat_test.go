package threat

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/persistence"
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
	o := obs.New()
	backing := persistence.NewStore(persistence.WithObserver(o))
	s := NewStore(backing, IdenticalOnce)
	if s.policy != IdenticalOnce {
		t.Fatalf("policy = %v", s.policy)
	}

	first, isNew, err := s.Add(sample("C1", "f1"))
	if err != nil || !isNew {
		t.Fatalf("first add: %v %v", isNew, err)
	}
	if first.Seq != 1 || first.Count != 1 {
		t.Fatalf("first = %+v", first)
	}
	writesAfterFirst := counter(t, o, "persistence.writes")
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
	if w := counter(t, o, "persistence.writes"); w != writesAfterFirst {
		t.Fatalf("identical add wrote %d records", w-writesAfterFirst)
	}
	if counter(t, o, "persistence.reads") == 0 {
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
	o := obs.New()
	s := NewStore(persistence.NewStore(persistence.WithObserver(o)), FullHistory)
	if _, isNew, err := s.Add(sample("C1", "f1")); err != nil || !isNew {
		t.Fatalf("first: %v %v", isNew, err)
	}
	w1 := counter(t, o, "persistence.writes")
	if w1 != 3 {
		t.Fatalf("first add writes = %d, want 3", w1)
	}
	if _, isNew, err := s.Add(sample("C1", "f1")); err != nil || !isNew {
		t.Fatalf("second: %v %v", isNew, err)
	}
	w2 := counter(t, o, "persistence.writes") - w1
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
// wrote in one store write of three deletions and no read, and the table
// keeps only the records of the other threat.
func TestRolledBackNewThreatLeavesNoRecord(t *testing.T) {
	o := obs.New()
	backing := persistence.NewStore(persistence.WithObserver(o))
	s := NewStore(backing, IdenticalOnce)
	if _, _, err := s.Add(sample("C2", "f2")); err != nil {
		t.Fatal(err)
	}
	kept := backing.Keys(table)
	added, isNew, err := s.Add(sample("C1", "f1"))
	if err != nil || !isNew {
		t.Fatalf("add = %v, %v", isNew, err)
	}
	reads, writes, records := counter(t, o, "persistence.reads"), counter(t, o, "persistence.writes"), counter(t, o, "persistence.records")
	s.Remove(added.Seq)
	r, w, n := counter(t, o, "persistence.reads")-reads, counter(t, o, "persistence.writes")-writes, counter(t, o, "persistence.records")-records
	if r != 0 || w != 1 || n != 3 {
		t.Errorf("rollback: %d reads, %d writes, %d records; want 0, 1, 3", r, w, n)
	}
	if got := backing.Keys(table); !slices.Equal(got, kept) {
		t.Errorf("table after the rollback = %v, want the other threat's %v", got, kept)
	}
}

// TestRemovedThreatIsOneWrite: under FullHistory an identity holds one
// record per occurrence, and RemoveIdentity pays one store write per removed
// threat, each deleting that threat's three records, whatever the identity
// holds; no key of a removed threat stays in the table, and the other
// identity's records do.
func TestRemovedThreatIsOneWrite(t *testing.T) {
	for _, k := range []int{1, 2, 5} {
		o := obs.New()
		backing := persistence.NewStore(persistence.WithObserver(o))
		s := NewStore(backing, FullHistory)
		if _, _, err := s.Add(sample("C2", "f2")); err != nil {
			t.Fatal(err)
		}
		kept := backing.Keys(table)
		for i := 0; i < k; i++ {
			if _, _, err := s.Add(sample("C1", "f1")); err != nil {
				t.Fatal(err)
			}
		}
		writes, records := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records")
		removed := s.RemoveIdentity(sample("C1", "f1").Identity())
		if len(removed) != k {
			t.Fatalf("k=%d: removed %d threats", k, len(removed))
		}
		if w, n := counter(t, o, "persistence.writes")-writes, counter(t, o, "persistence.records")-records; w != int64(k) || n != int64(3*k) {
			t.Errorf("k=%d: %d writes, %d records; want %d, %d", k, w, n, k, 3*k)
		}
		if got := backing.Keys(table); !slices.Equal(got, kept) {
			t.Errorf("k=%d: table after the removal = %v, want the other threat's %v", k, got, kept)
		}
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
	if s.policy != IdenticalOnce {
		t.Fatalf("default policy = %v", s.policy)
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
		o := obs.New()
		s := NewStore(persistence.NewStore(persistence.WithObserver(o)), c.policy)
		cost := func(th Threat) (reads, writes int64) {
			reads, writes = counter(t, o, "persistence.reads"), counter(t, o, "persistence.writes")
			if _, _, err := s.Add(th); err != nil {
				t.Fatal(err)
			}
			return counter(t, o, "persistence.reads") - reads, counter(t, o, "persistence.writes") - writes
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

// storedKeys returns the keys of the records the maps name: three for each
// record under IdenticalOnce, sorted as the table lists them.
func storedKeys(s *Store) []string {
	var keys []string
	for _, th := range s.All() {
		rec, affected, data := recordKeys(th.Seq)
		keys = append(keys, rec, affected, data)
	}
	slices.Sort(keys)
	return keys
}

// unstorable is a threat whose affected object captured a state its wire
// form cannot carry.
func unstorable() Threat {
	th := sample("C1", "f1")
	th.Affected[0].State = object.State{"bad": struct{}{}}
	return th
}

// TestUnstorableThreatLeavesNoTrace: an Add whose affected list cannot encode
// fails and leaves the maps, the table, the sequence number and the counters
// as they were, so the same threat stored later is new, under the first
// sequence number, at its three writes; a fold into a ghost record was what
// an Add that failed after the maps changed left.
func TestUnstorableThreatLeavesNoTrace(t *testing.T) {
	o := obs.New()
	backing := persistence.NewStore(persistence.WithObserver(o))
	s := NewStore(backing, IdenticalOnce, WithObserver(o))
	if _, _, err := s.Add(unstorable()); err == nil {
		t.Fatal("an unstorable threat was stored")
	}
	if n, keys := s.Len(), backing.Keys(table); n != 0 || len(keys) != 0 {
		t.Fatalf("after the failed add: %d threats in memory, table %v", n, keys)
	}
	for _, name := range []string{"persistence.writes", "threat.stored", "threat.folded"} {
		if v := counter(t, o, name); v != 0 {
			t.Errorf("%s = %d after the failed add", name, v)
		}
	}
	stored, isNew, err := s.Add(sample("C1", "f1"))
	if err != nil || !isNew || stored.Seq != 1 || stored.Count != 1 {
		t.Fatalf("the threat stored after the failure: %+v, new %v, %v", stored, isNew, err)
	}
	if w := counter(t, o, "persistence.writes"); w != 3 {
		t.Errorf("a new threat made %d writes, want 3", w)
	}
}

// TestReplicateIsOneWrite: a peer's change is stored with the records of the
// batch that carried it in one write of the backing store — a removed
// threat's three deletions, a new threat's three records, a fold's nothing —
// and a change whose write fails leaves the maps, the table and the counters
// as they were.
func TestReplicateIsOneWrite(t *testing.T) {
	o := obs.New()
	backing := persistence.NewStore(persistence.WithObserver(o))
	s := NewStore(backing, IdenticalOnce, WithObserver(o))
	for _, ctx := range []object.ID{"f1", "f2"} {
		if _, _, err := s.Add(sample("C1", ctx)); err != nil {
			t.Fatal(err)
		}
	}
	all, keys := s.All(), storedKeys(s)
	counts := func() []int64 {
		var out []int64
		for _, name := range []string{"persistence.writes", "persistence.records", "threat.stored", "threat.folded", "threat.removed"} {
			out = append(out, counter(t, o, name))
		}
		return out
	}
	before := counts()
	d := Delta{Removed: []string{sample("C1", "f1").Identity()}, Added: []Threat{sample("C1", "f3"), sample("C1", "f2"), unstorable()}}
	d.Added[2].ContextID = "f4"
	if err := s.Replicate(d, nil); err == nil {
		t.Fatal("a change with an unstorable threat was stored")
	}
	if got := s.All(); !slices.EqualFunc(got, all, func(a, b Threat) bool { return a.Seq == b.Seq && a.Count == b.Count && a.Identity() == b.Identity() }) {
		t.Fatalf("after a failed write the store holds %+v, want %+v", got, all)
	}
	if got := backing.Keys(table); !slices.Equal(got, keys) {
		t.Fatalf("after a failed write the table holds %v, want %v", got, keys)
	}
	if got := counts(); !slices.Equal(got, before) {
		t.Fatalf("a failed write moved the counters: %v -> %v", before, got)
	}
	d.Added = d.Added[:2]
	with := []persistence.Change{{Table: "replica-meta", Key: "o1", Value: appData{"k": "v"}}}
	if err := s.Replicate(d, with); err != nil {
		t.Fatal(err)
	}
	got := counts()
	if w, r := got[0]-before[0], got[1]-before[1]; w != 1 || r != 1+3+3 {
		t.Errorf("the change made %d writes of %d records, want 1 of 7: the batch's record, 3 deletions and 3 new records", w, r)
	}
	if stored, folded, removed := got[2]-before[2], got[3]-before[3], got[4]-before[4]; stored != 1 || folded != 1 || removed != 1 {
		t.Errorf("the change stored %d, folded %d and removed %d threats, want 1 each", stored, folded, removed)
	}
	if !backing.Has("replica-meta", "o1") {
		t.Error("the batch's record is not stored")
	}
	if got, want := backing.Keys(table), storedKeys(s); !slices.Equal(got, want) {
		t.Errorf("the table holds %v, the maps name %v", got, want)
	}
}

// TestConcurrentReplicateAndRemoveIdentity races a backup's received batches,
// which add threats of a few identities and remove some, against a local pass
// that removes the same identities: the maps change and the table is written
// under one hold of the store's lock, so afterwards the table holds exactly
// the records the maps name, and every batch's replica record.
func TestConcurrentReplicateAndRemoveIdentity(t *testing.T) {
	backing := persistence.NewStore()
	s := NewStore(backing, IdenticalOnce)
	ctxs := []object.ID{"f1", "f2", "f3"}
	const batches = 500
	var wg sync.WaitGroup
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				th := sample("C1", ctxs[i%len(ctxs)])
				th.UID = fmt.Sprintf("n%d#%d", b+2, i)
				d := Delta{Added: []Threat{th}}
				if i%4 == 3 {
					d.Removed = []string{sample("C1", ctxs[(i+1)%len(ctxs)]).Identity()}
				}
				with := []persistence.Change{{Table: "replica-meta", Key: th.UID, Value: appData(nil)}}
				if err := s.Replicate(d, with); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// The local pass removes the identities for as long as batches arrive.
	done, passed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(passed)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				s.RemoveIdentity(sample("C1", ctxs[i%len(ctxs)]).Identity())
			}
		}
	}()
	wg.Wait()
	close(done)
	<-passed
	if got, want := backing.Keys(table), storedKeys(s); !slices.Equal(got, want) {
		t.Errorf("the table holds %v, the maps name %v", got, want)
	}
	if n := backing.Len("replica-meta"); n != 2*batches {
		t.Errorf("%d replica records stored, want %d", n, 2*batches)
	}
}
