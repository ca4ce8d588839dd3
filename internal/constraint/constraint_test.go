package constraint

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dedisys/internal/object"
)

func TestDegreeOrdering(t *testing.T) {
	ordered := []Degree{Violated, Uncheckable, PossiblyViolated, PossiblySatisfied, Satisfied}
	for i := 1; i < len(ordered); i++ {
		if ordered[i-1] >= ordered[i] {
			t.Fatalf("ordering broken at %v >= %v", ordered[i-1], ordered[i])
		}
	}
}

func TestDegreeIsThreat(t *testing.T) {
	cases := map[Degree]bool{
		Violated:          false,
		Uncheckable:       true,
		PossiblyViolated:  true,
		PossiblySatisfied: true,
		Satisfied:         false,
	}
	for d, want := range cases {
		if d.IsThreat() != want {
			t.Errorf("%v.IsThreat() = %v, want %v", d, d.IsThreat(), want)
		}
	}
}

func TestCombineRules(t *testing.T) {
	// The §3.1 combination table.
	cases := []struct {
		a, b, want Degree
	}{
		{Satisfied, Satisfied, Satisfied},
		{Satisfied, PossiblySatisfied, PossiblySatisfied},
		{PossiblySatisfied, PossiblyViolated, PossiblyViolated},
		{Satisfied, Uncheckable, Uncheckable},
		{PossiblyViolated, Uncheckable, Uncheckable},
		{Uncheckable, Violated, Violated},
		{PossiblySatisfied, Violated, Violated},
		{Satisfied, Violated, Violated},
	}
	for _, c := range cases {
		if got := Combine(c.a, c.b); got != c.want {
			t.Errorf("Combine(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Combine(c.b, c.a); got != c.want {
			t.Errorf("Combine(%v,%v) = %v, want %v (commuted)", c.b, c.a, got, c.want)
		}
	}
}

func TestCombineAll(t *testing.T) {
	if got := CombineAll(); got != Satisfied {
		t.Errorf("empty CombineAll = %v", got)
	}
	if got := CombineAll(Satisfied, PossiblySatisfied, Satisfied); got != PossiblySatisfied {
		t.Errorf("CombineAll = %v", got)
	}
	if got := CombineAll(Uncheckable, PossiblyViolated, Violated); got != Violated {
		t.Errorf("CombineAll with violated = %v", got)
	}
}

func degreeGen(r *rand.Rand) Degree {
	return Degree(r.Intn(5) + 1)
}

// Properties of the satisfaction-degree algebra: commutative, associative,
// idempotent, and the identity is Satisfied.
func TestQuickCombineAlgebra(t *testing.T) {
	cfg := &quick.Config{
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(degreeGen(r))
			}
		},
	}
	comm := func(a, b Degree) bool { return Combine(a, b) == Combine(b, a) }
	if err := quick.Check(comm, cfg); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	assoc := func(a, b, c Degree) bool {
		return Combine(Combine(a, b), c) == Combine(a, Combine(b, c))
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Errorf("associativity: %v", err)
	}
	idem := func(a Degree) bool { return Combine(a, a) == a }
	if err := quick.Check(idem, cfg); err != nil {
		t.Errorf("idempotence: %v", err)
	}
	ident := func(a Degree) bool { return Combine(a, Satisfied) == a }
	if err := quick.Check(ident, cfg); err != nil {
		t.Errorf("identity: %v", err)
	}
	// Combining never improves the degree except across the Violated/
	// Uncheckable inversion, which the dissertation defines deliberately:
	// a Violated result dominates an Uncheckable one.
	monotone := func(a, b Degree) bool {
		got := Combine(a, b)
		if a == Violated || b == Violated {
			return got == Violated
		}
		return got <= a && got <= b
	}
	if err := quick.Check(monotone, cfg); err != nil {
		t.Errorf("monotonicity: %v", err)
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, typ := range []Type{Pre, Post, HardInvariant, SoftInvariant, AsyncInvariant} {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("ParseType(%v) = %v, %v", typ, got, err)
		}
	}
	for _, p := range []Priority{NonTradeable, Tradeable} {
		got, err := ParsePriority(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePriority(%v) = %v, %v", p, got, err)
		}
	}
	for _, d := range []Degree{Violated, Uncheckable, PossiblyViolated, PossiblySatisfied, Satisfied} {
		got, err := ParseDegree(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDegree(%v) = %v, %v", d, got, err)
		}
	}
	if _, err := ParseType("BOGUS"); err == nil {
		t.Error("ParseType should reject unknown")
	}
	if _, err := ParsePriority("BOGUS"); err == nil {
		t.Error("ParsePriority should reject unknown")
	}
	if _, err := ParseDegree("BOGUS"); err == nil {
		t.Error("ParseDegree should reject unknown")
	}
}

func TestStalenessMissedEstimate(t *testing.T) {
	s := Staleness{Version: 5, EstimatedLatest: 8}
	if s.MissedEstimate() != 3 {
		t.Errorf("missed = %d", s.MissedEstimate())
	}
	s = Staleness{Version: 8, EstimatedLatest: 5}
	if s.MissedEstimate() != 0 {
		t.Errorf("missed should clamp to 0, got %d", s.MissedEstimate())
	}
}

func TestContextPreparers(t *testing.T) {
	alarm := object.New("Alarm", "a1", object.State{"repairReport": object.ID("r1")})

	got, err := (CalledObjectIsContext{}).ContextID(alarm)
	if err != nil || got != "a1" {
		t.Fatalf("CalledObjectIsContext = %q, %v", got, err)
	}

	// A reference is named, not resolved: r1 exists nowhere.
	got, err = (ReferenceIsContext{Attr: "repairReport"}).ContextID(alarm)
	if err != nil || got != "r1" {
		t.Fatalf("ReferenceIsContext = %q, %v", got, err)
	}

	_, err = (ReferenceIsContext{Attr: "missing"}).ContextID(alarm)
	if !errors.Is(err, ErrUncheckable) {
		t.Fatalf("empty reference err = %v, want ErrUncheckable", err)
	}
}

func TestMetaValidate(t *testing.T) {
	valid := Meta{
		Name:         "C1",
		Type:         HardInvariant,
		Priority:     Tradeable,
		MinDegree:    Uncheckable,
		NeedsContext: true,
		ContextClass: "Flight",
		Affected: []AffectedMethod{
			{Class: "Flight", Method: "SellTickets", Prep: CalledObjectIsContext{}},
		},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid meta rejected: %v", err)
	}
	cases := []func(m *Meta){
		func(m *Meta) { m.Name = "" },
		func(m *Meta) { m.Type = 0 },
		func(m *Meta) { m.Priority = 0 },
		func(m *Meta) { m.MinDegree = 0 },
		func(m *Meta) { m.ContextClass = "" },
		func(m *Meta) { m.Affected = nil },
		func(m *Meta) { m.Affected = []AffectedMethod{{Class: "", Method: "x"}} },
		func(m *Meta) { m.Affected = []AffectedMethod{{Class: "F", Method: "M", Prep: nil}} },
	}
	for i, mutate := range cases {
		m := valid
		m.Affected = append([]AffectedMethod(nil), valid.Affected...)
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid meta accepted", i)
		}
	}
}

func TestMetaFreshnessFor(t *testing.T) {
	m := Meta{Freshness: []FreshnessCriterion{{Class: "Alarm", MaxAge: 3}}}
	if age, ok := m.FreshnessFor("Alarm"); !ok || age != 3 {
		t.Errorf("FreshnessFor(Alarm) = %d, %v", age, ok)
	}
	if _, ok := m.FreshnessFor("Other"); ok {
		t.Error("FreshnessFor(Other) should be absent")
	}
}

const sampleConfig = `
<constraints>
  <constraint name="ComponentKindReferenceConsistency"
      type="HARD" priority="RELAXABLE" contextObject="Y"
      minSatisfactionDegree="UNCHECKABLE">
    <class>ComponentKindReferenceConstraint</class>
    <context-class>RepairReport</context-class>
    <description>alarmKind determines repairable component kinds</description>
    <affected-methods>
      <affected-method>
        <context-preparation>
          <preparation-class>CalledObjectIsContextObject</preparation-class>
        </context-preparation>
        <objectMethod name="SetAffectedComponent">
          <objectClass>RepairReport</objectClass>
        </objectMethod>
      </affected-method>
      <affected-method>
        <context-preparation>
          <preparation-class>ReferenceIsContextObject</preparation-class>
          <params><param name="getter" value="repairReport"/></params>
        </context-preparation>
        <objectMethod name="SetAlarmKind">
          <objectClass>Alarm</objectClass>
        </objectMethod>
      </affected-method>
    </affected-methods>
    <freshness-criteria>
      <freshness-criterion><objectClass>Alarm</objectClass><maxAge>5</maxAge></freshness-criterion>
    </freshness-criteria>
    <reconciliation>
      <allow-rollback>false</allow-rollback>
      <notify-on-replica-conflict>true</notify-on-replica-conflict>
    </reconciliation>
  </constraint>
</constraints>`

func TestParseConfig(t *testing.T) {
	facts := NewFactoryRegistry()
	facts.Register("ComponentKindReferenceConstraint", func() Constraint {
		return Func(func(ctx Context) (bool, error) { return true, nil })
	})
	got, err := ParseConfig(strings.NewReader(sampleConfig), facts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d constraints", len(got))
	}
	m := got[0].Meta
	if m.Name != "ComponentKindReferenceConsistency" {
		t.Errorf("name = %s", m.Name)
	}
	if m.Type != HardInvariant || m.Priority != Tradeable || m.MinDegree != Uncheckable {
		t.Errorf("attrs = %v %v %v", m.Type, m.Priority, m.MinDegree)
	}
	if !m.NeedsContext || m.ContextClass != "RepairReport" {
		t.Errorf("context = %v %s", m.NeedsContext, m.ContextClass)
	}
	if len(m.Affected) != 2 {
		t.Fatalf("affected = %d", len(m.Affected))
	}
	if m.Affected[0].Class != "RepairReport" || m.Affected[0].Method != "SetAffectedComponent" {
		t.Errorf("affected[0] = %+v", m.Affected[0])
	}
	if _, ok := m.Affected[0].Prep.(CalledObjectIsContext); !ok {
		t.Errorf("affected[0].Prep = %T", m.Affected[0].Prep)
	}
	ref, ok := m.Affected[1].Prep.(ReferenceIsContext)
	if !ok || ref.Attr != "repairReport" {
		t.Errorf("affected[1].Prep = %#v", m.Affected[1].Prep)
	}
	if age, ok := m.FreshnessFor("Alarm"); !ok || age != 5 {
		t.Errorf("freshness = %d %v", age, ok)
	}
	if m.Instructions.AllowRollback || !m.Instructions.NotifyOnReplicaConflict {
		t.Errorf("instructions = %+v", m.Instructions)
	}
	if got[0].Impl == nil {
		t.Error("impl not instantiated")
	}
}

func TestParseConfigErrors(t *testing.T) {
	facts := NewFactoryRegistry()
	cases := []string{
		`<constraints><constraint name="X" type="BOGUS" priority="RELAXABLE" minSatisfactionDegree="SATISFIED"><class>C</class></constraint></constraints>`,
		`<constraints><constraint name="X" type="HARD" priority="BOGUS" minSatisfactionDegree="SATISFIED"><class>C</class></constraint></constraints>`,
		`<constraints><constraint name="X" type="HARD" priority="RELAXABLE" minSatisfactionDegree="BOGUS"><class>C</class></constraint></constraints>`,
		`not xml at all`,
	}
	for i, src := range cases {
		if _, err := ParseConfig(strings.NewReader(src), facts); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	// Unregistered implementation class.
	good := `<constraints><constraint name="X" type="HARD" priority="RELAXABLE" minSatisfactionDegree="SATISFIED"><class>Unknown</class></constraint></constraints>`
	if _, err := ParseConfig(strings.NewReader(good), facts); err == nil {
		t.Error("unknown impl class accepted")
	}
}

func TestFuncAdapter(t *testing.T) {
	called := false
	c := Func(func(ctx Context) (bool, error) { called = true; return true, nil })
	ok, err := c.Validate(nil)
	if !ok || err != nil || !called {
		t.Fatalf("Func adapter: %v %v %v", ok, err, called)
	}
}
