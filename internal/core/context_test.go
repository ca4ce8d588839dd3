package core

import (
	"context"
	"testing"
	"unsafe"

	"dedisys/internal/constraint"
	"dedisys/internal/invocation"
	"dedisys/internal/object"
	"dedisys/internal/threat"
	"dedisys/internal/tx"
)

// registerReportFiled registers an invariant of the given type whose context
// object is the RepairReport an Alarm's "report" attribute names (ATS,
// Listing 4.1). It is satisfied whenever that report can be resolved.
func (e *localEnv) registerReportFiled(t *testing.T, ctype constraint.Type) {
	t.Helper()
	meta := constraint.Meta{
		Name: "ReportFiled", Type: ctype,
		Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
		NeedsContext: true, ContextClass: "RepairReport",
		Affected: []constraint.AffectedMethod{
			{Class: "Alarm", Method: "Acknowledge", Prep: constraint.ReferenceIsContext{Attr: "report"}},
		},
	}
	if err := e.repo.Register(meta, constraint.Func(func(ctx constraint.Context) (bool, error) {
		if ctx.ContextObject() == nil {
			return false, constraint.ErrUncheckable
		}
		return true, nil
	})); err != nil {
		t.Fatal(err)
	}
}

// unresolvableContexts are an Alarm's report references the CCMgr cannot
// resolve, with the context ID the uncheckable threat must carry: a named
// object that does not exist keeps its own ID, an empty reference is named
// by the called object.
var unresolvableContexts = []struct {
	report object.ID
	want   object.ID
}{
	{"r-missing", "r-missing"},
	{"", "a1"},
}

// TestHardInvariantUnresolvableContext: a hard invariant whose context object
// cannot be resolved is uncheckable under the ID the preparer named, and
// reconciliation re-evaluates that object, not the Alarm.
func TestHardInvariantUnresolvableContext(t *testing.T) {
	if size := unsafe.Sizeof(valContext{}); size > 208 {
		t.Errorf("valContext is %d B; the first access inline keeps it in the 208 B size class", size)
	}
	for _, tc := range unresolvableContexts {
		env := newLocalEnv(t)
		env.registerReportFiled(t, constraint.HardInvariant)
		if err := env.reg.Add(object.New("Alarm", "a1", object.State{"report": tc.report})); err != nil {
			t.Fatal(err)
		}
		if err := env.invoke(t, "a1", "Acknowledge"); err != nil {
			t.Fatal(err)
		}
		ths := env.ths.All()
		if len(ths) != 1 || ths[0].ContextID != tc.want || ths[0].Degree != constraint.Uncheckable {
			t.Fatalf("report %q: threats = %+v, want one uncheckable under %s", tc.report, ths, tc.want)
		}
		if tc.report == "" {
			continue
		}
		report, err := env.ccm.ReconcileThreats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if report.Postponed != 1 || env.ths.Len() != 1 {
			t.Fatalf("reconcile = %+v with %d threats; the missing report must stay threatened", report, env.ths.Len())
		}
	}
}

// TestDeferredInvariantUnresolvableContext: soft and asynchronous invariants
// name their context object when the operation runs and resolve it at
// commit; one that cannot be resolved is uncheckable under the named ID
// there too, never validated against the Alarm.
func TestDeferredInvariantUnresolvableContext(t *testing.T) {
	for _, ctype := range []constraint.Type{constraint.SoftInvariant, constraint.AsyncInvariant} {
		for _, tc := range unresolvableContexts {
			env := newLocalEnv(t)
			env.registerReportFiled(t, ctype)
			if err := env.reg.Add(object.New("Alarm", "a1", object.State{"report": tc.report})); err != nil {
				t.Fatal(err)
			}
			if err := env.invoke(t, "a1", "Acknowledge"); err != nil {
				t.Fatal(err)
			}
			ths := env.ths.All()
			if len(ths) != 1 || ths[0].ContextID != tc.want || ths[0].Degree != constraint.Uncheckable {
				t.Fatalf("%s, report %q: threats = %+v, want one uncheckable under %s", ctype, tc.report, ths, tc.want)
			}
		}
	}
}

// TestRolledBackClearKeepsPeerThreats: an operation that reliably satisfies a
// constraint clears its stored threat locally at once; the peers hear of it
// when the transaction commits. Rolled back, the threat stays everywhere.
func TestRolledBackClearKeepsPeerThreats(t *testing.T) {
	env := newReplEnv(t)
	env.createFlight(t, "f1", 0, 10)
	meta := constraint.Meta{
		Name: "C1", Type: constraint.HardInvariant,
		Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
		NeedsContext: true, ContextClass: "Flight",
		Affected: []constraint.AffectedMethod{
			{Class: "Flight", Method: "SetSold", Prep: constraint.CalledObjectIsContext{}},
		},
	}
	if err := env.repo.Register(meta, constraint.Func(func(ctx constraint.Context) (bool, error) {
		return true, nil
	})); err != nil {
		t.Fatal(err)
	}
	th := threat.Threat{Constraint: "C1", ContextID: "f1", Degree: constraint.PossiblySatisfied}
	for _, s := range []*threat.Store{env.ths, env.ths2} {
		if _, _, err := s.Add(th); err != nil {
			t.Fatal(err)
		}
	}
	ent, _ := env.reg.Get("f1")
	setSold := func(sold int64, finish func(*tx.Tx) error) {
		t.Helper()
		txn := env.txm.Begin()
		inv := &invocation.Invocation{Node: "n1", Target: "f1", Class: "Flight", Method: "SetSold", Kind: object.Write, Args: []any{sold}, Tx: txn}
		chain := invocation.NewChain(func(inv *invocation.Invocation) (any, error) {
			txn.RecordUpdate(ent)
			ent.Set("sold", inv.Args[0])
			return nil, nil
		}, env.ccm.Interceptor())
		if _, err := chain.Dispatch(inv); err != nil {
			t.Fatal(err)
		}
		if env.ths.Len() != 0 {
			t.Fatalf("n1 kept %d threats after the satisfying operation", env.ths.Len())
		}
		if err := finish(txn); err != nil {
			t.Fatal(err)
		}
	}

	setSold(1, (*tx.Tx).Rollback)
	if n1, n2 := env.ths.Len(), env.ths2.Len(); n1 != 1 || n2 != 1 {
		t.Fatalf("after rollback n1 holds %d threats, n2 %d; want 1 and 1", n1, n2)
	}
	setSold(2, (*tx.Tx).Commit)
	if n1, n2 := env.ths.Len(), env.ths2.Len(); n1 != 0 || n2 != 0 {
		t.Fatalf("after commit n1 holds %d threats, n2 %d; want none", n1, n2)
	}
}
