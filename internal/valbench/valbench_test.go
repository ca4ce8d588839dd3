package valbench

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAllChecksHaveMatchingInterpretedForm(t *testing.T) {
	// Every compiled check and its interpreted expression must agree on a
	// set of representative states (the §2.3.1 comparability requirement).
	emp := &Employee{Name: "e", MaxLoad: 10, Load: 4, Done: 2}
	proj := &Project{Name: "p", Budget: 100, Spent: 30, Members: 2}
	invocations := []*Invocation{
		{Class: "Employee", Method: "AssignHours", Target: emp, Args: []int{3}, Pre: map[string]int{"load": 1, "done": 1}},
		{Class: "Project", Method: "Spend", Target: proj, Args: []int{5}, Pre: map[string]int{"spent": 25, "members": 1}},
	}
	for _, inv := range invocations {
		var checks []*CompiledCheck
		checks = append(checks, classInvariants[inv.Class]...)
		checks = append(checks, preConditions[inv.Class+"."+inv.Method]...)
		for _, c := range checks {
			compiled := c.Fn(inv)
			interpreted := c.checkInterpreted(inv)
			if compiled != interpreted {
				t.Errorf("%s: compiled=%v interpreted=%v", c.Name, compiled, interpreted)
			}
		}
	}
}

func TestApproachesProduceIdenticalFinalState(t *testing.T) {
	spec := Spec{Employees: 2, Projects: 2, Steps: 5}
	// Reference run.
	ref := NewWorld(spec.Employees, spec.Projects)
	if err := runScenario(ref, spec, func(target any, class, method string, arg int) error {
		rawCall(target, method, arg)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, a := range Approaches() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			counts, err := a.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if a.Name() != "no-checks" && counts.Total() == 0 {
				t.Fatal("checking approach performed no checks")
			}
		})
	}
}

func TestApproachCheckCountParity(t *testing.T) {
	// All checking approaches must perform the same number of checks
	// (§2.3.1: "all the approaches actually check the same number of
	// constraints").
	spec := DefaultSpec
	var want CheckCounts
	for i, a := range Approaches() {
		if a.Name() == "no-checks" {
			continue
		}
		counts, err := a.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if want == (CheckCounts{}) {
			want = counts
			t.Logf("per-run checks: %d invariants, %d post, %d pre (bindings=%d)",
				counts.Invariants, counts.Post, counts.Pre, constraintBindings())
			continue
		}
		if counts != want {
			t.Errorf("approach %d (%s) counts = %+v, want %+v", i, a.Name(), counts, want)
		}
	}
}

func TestScenarioProfileMatchesPaperShape(t *testing.T) {
	// The §2.3.2 profile: invariant checks dominate, then postconditions,
	// then preconditions.
	var h Handcrafted
	counts, err := h.Run(DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !(counts.Invariants > counts.Post && counts.Post > counts.Pre) {
		t.Fatalf("profile = %+v", counts)
	}
	if counts.Invariants < 1000 {
		t.Fatalf("invariant checks = %d, want thousands", counts.Invariants)
	}
}

func TestViolationsAreDetected(t *testing.T) {
	// Sanity check of §2.3.1: the approaches must actually detect
	// violations; drive a scenario that violates a precondition.
	for _, a := range Approaches() {
		if a.Name() == "no-checks" {
			continue
		}
		ta, ok := a.(*tableApproach)
		if !ok {
			continue
		}
		w := NewWorld(1, 0)
		err := runScenario(w, Spec{Employees: 1, Steps: 1}, func(target any, class, method string, arg int) error {
			if method == "AssignHours" {
				arg = -5 // violates PreAssignPositive
			}
			inv := &Invocation{Class: class, Method: method, Target: target, Args: []int{arg}, Pre: map[string]int{}}
			find := ta.find
			if find == nil {
				find = staticFind
			}
			for _, c := range find(class, method, PreCheck) {
				if !ta.eval(c, inv) {
					return ErrCheckFailed
				}
			}
			ta.dispatch(inv)
			return nil
		})
		if !errors.Is(err, ErrCheckFailed) {
			t.Errorf("%s: violation not detected: %v", a.Name(), err)
		}
	}
}

func TestRepoLookup(t *testing.T) {
	for _, cached := range []bool{false, true} {
		r := NewRepo(cached)
		if r.Size() != constraintBindings() {
			t.Fatalf("size = %d, want %d", r.Size(), constraintBindings())
		}
		invs := r.Lookup("Employee", "AssignHours", InvCheck)
		if len(invs) != len(employeeInvariants) {
			t.Fatalf("cached=%v: invariants = %d", cached, len(invs))
		}
		pres := r.Lookup("Employee", "AssignHours", PreCheck)
		if len(pres) != 1 || pres[0].Name != "PreAssignPositive" {
			t.Fatalf("cached=%v: pres = %v", cached, pres)
		}
		if got := r.Lookup("Employee", "Nope", PreCheck); len(got) != 0 {
			t.Fatalf("miss = %v", got)
		}
		// Second lookup hits the cache (or rescans): same result either way.
		again := r.Lookup("Employee", "AssignHours", InvCheck)
		if len(again) != len(invs) {
			t.Fatalf("repeat lookup differs")
		}
		if r.Searches() != 4 {
			t.Fatalf("searches = %d", r.Searches())
		}
	}
}

// Property: cached and uncached repositories agree on arbitrary queries.
func TestQuickRepoCacheEquivalence(t *testing.T) {
	plain := NewRepo(false)
	cached := NewRepo(true)
	classes := []string{"Employee", "Project", "Nope"}
	methods := []string{"SetMaxLoad", "AssignHours", "Spend", "AddMember", "Nope"}
	f := func(ci, mi, ki uint8) bool {
		class := classes[int(ci)%len(classes)]
		method := methods[int(mi)%len(methods)]
		kind := Kind(int(ki)%3 + 1)
		a := plain.Lookup(class, method, kind)
		b := cached.Lookup(class, method, kind)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunSlicesConfigurations(t *testing.T) {
	spec := Spec{Employees: 2, Projects: 2, Steps: 3}
	for _, mech := range []Mechanism{MechInline, MechDyn, MechProxy} {
		for _, cfg := range []SliceConfig{
			{Mech: mech},
			{Mech: mech, Extract: true},
			{Mech: mech, Search: true},
			{Mech: mech, Search: true, Cached: true},
			{Mech: mech, Check: true},
			{Mech: mech, Check: true, Cached: true},
		} {
			searches, err := RunSlices(spec, cfg)
			if err != nil {
				t.Fatalf("%v %+v: %v", mech, cfg, err)
			}
			if (cfg.Search || cfg.Check) && searches == 0 {
				t.Fatalf("%v: no searches recorded", mech)
			}
			if !cfg.Search && !cfg.Check && searches != 0 {
				t.Fatalf("%v: unexpected searches", mech)
			}
		}
	}
	if MechInline.String() == "" || MechDyn.String() == "" || MechProxy.String() == "" || Mechanism(0).String() != "unknown" {
		t.Fatal("mechanism strings")
	}
}

func TestMeasureAll(t *testing.T) {
	spec := Spec{Employees: 1, Projects: 1, Steps: 2}
	ms, err := MeasureAll(spec, 1, "handcrafted")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(Approaches()) {
		t.Fatalf("measurements = %d", len(ms))
	}
	for _, m := range ms {
		if m.Duration <= 0 {
			t.Errorf("%s: duration %v", m.Name, m.Duration)
		}
		if m.Overhead <= 0 {
			t.Errorf("%s: overhead %f", m.Name, m.Overhead)
		}
	}
	if _, err := MeasureAll(spec, 1, "no-such-baseline"); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestMeasureSlices(t *testing.T) {
	spec := Spec{Employees: 1, Projects: 1, Steps: 2}
	m, err := MeasureSlices(spec, SliceConfig{Mech: MechDyn, Search: true, Cached: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Duration <= 0 || m.Searches == 0 {
		t.Fatalf("measurement = %+v", m)
	}
	if _, err := BaselineDuration(spec, 1); err != nil {
		t.Fatal(err)
	}
}

// constraintBindings counts the repository registrations: each invariant is
// bound to every public method of its class, plus the pre- and
// postconditions. The dissertation's application registers 78 constraints;
// this study registers the same order of magnitude.
func constraintBindings() int {
	n := 0
	for class, invs := range classInvariants {
		n += len(invs) * len(classMethods[class])
	}
	for _, cs := range preConditions {
		n += len(cs)
	}
	for _, cs := range postConditions {
		n += len(cs)
	}
	return n
}
