package ats

import (
	"context"
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/core"
	"dedisys/internal/node"
	"dedisys/internal/reconcile"
	"dedisys/internal/replication"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
)

func TestConfigParses(t *testing.T) {
	cs, err := Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatalf("constraints = %d", len(cs))
	}
	m := cs[0].Meta
	if m.Name != "ComponentKindReferenceConsistency" {
		t.Fatalf("name = %s", m.Name)
	}
	if m.ContextClass != ReportClass || len(m.Affected) != 2 {
		t.Fatalf("meta = %+v", m)
	}
	if age, ok := m.FreshnessFor(AlarmClass); !ok || age != 10 {
		t.Fatalf("freshness = %d %v", age, ok)
	}
}

func TestAllowedComponents(t *testing.T) {
	got := AllowedComponents("Signal")
	if len(got) != 2 || got[0] != "Signal Controller" {
		t.Fatalf("allowed = %v", got)
	}
	if AllowedComponents("Bogus") != nil {
		t.Fatal("unknown kind should yield nil")
	}
}

// setupATS builds a 2-node cluster with an alarm (admin site n1) and its
// repair report (technical site n2), both replicated everywhere.
func setupATS(t *testing.T) *node.Cluster {
	t.Helper()
	c, err := node.NewCluster(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Constraints()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(AlarmSchema())
		n.RegisterSchema(ReportSchema())
		if err := n.DeployConstraints(cs); err != nil {
			t.Fatal(err)
		}
	}
	n1 := c.Node(0)
	if err := n1.Create(ReportClass, "r1", NewReport("", "a1"), c.AllReplicas("n2")); err != nil {
		t.Fatal(err)
	}
	if err := n1.Create(AlarmClass, "a1", NewAlarm("Signal", "r1"), c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHealthyEnforcement(t *testing.T) {
	c := setupATS(t)
	n2 := c.Node(1)
	// A signal alarm is repaired by a signal controller: fine.
	if _, err := n2.Invoke("r1", "SetAffectedComponent", "Signal Controller"); err != nil {
		t.Fatal(err)
	}
	// A power supply cannot remove a signal alarm.
	if _, err := n2.Invoke("r1", "SetAffectedComponent", "Power Supply"); !core.IsViolation(err) {
		t.Fatalf("err = %v", err)
	}
	// Changing the alarm kind re-validates against the existing component:
	// the Alarm method is an affected method with reference preparation.
	if _, err := c.Node(0).Invoke("a1", "SetAlarmKind", "Power"); !core.IsViolation(err) {
		t.Fatalf("cross-class trigger err = %v", err)
	}
	// Changing only the description triggers no constraint (§1.6: affected
	// methods avoid unnecessary validations).
	validations := func() int64 {
		v, ok := c.Obs.Snapshot().Counters["n1.core.validations"]
		if !ok {
			t.Fatal("n1.core.validations is not registered")
		}
		return v
	}
	before := validations()
	if _, err := c.Node(0).Invoke("a1", "SetDescription", "smoke observed"); err != nil {
		t.Fatal(err)
	}
	if got := validations(); got != before {
		t.Fatalf("SetDescription triggered %d validations", got-before)
	}
}

func TestDegradedAcceptsPossiblyViolated(t *testing.T) {
	c := setupATS(t)
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	n1, n2 := c.Node(0), c.Node(1)

	// Administrative operator changes the alarm kind in partition A.
	if _, err := n1.Invoke("a1", "SetAlarmKind", "Power"); err != nil {
		t.Fatal(err)
	}
	// Technical operator fixes a signal cable in partition B: against B's
	// (stale) view the constraint holds, so this is possibly satisfied; the
	// ATS accepts it because the technician knows the repaired component
	// (§3.1).
	if _, err := n2.Invoke("r1", "SetAffectedComponent", "Signal Cable"); err != nil {
		t.Fatal(err)
	}
	if n2.Threats.Len() == 0 {
		t.Fatal("no threat recorded in partition B")
	}

	// After healing, reconciliation detects the actual violation.
	c.Heal()
	var violated []string
	report, err := reconcile.Run(context.Background(), n2, []transport.NodeID{"n1"}, reconcile.Handlers{
		ConstraintHandler: func(th threat.Threat, meta constraint.Meta) bool {
			violated = append(violated, th.Constraint)
			// The technical operator re-files the report for the power fix.
			if _, err := n2.Invoke("r1", "SetAffectedComponent", "Power Supply"); err != nil {
				return false
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Constraint.Violations != 1 || report.Constraint.Resolved != 1 {
		t.Fatalf("report = %+v", report.Constraint)
	}
	if len(violated) != 1 || violated[0] != "ComponentKindReferenceConsistency" {
		t.Fatalf("violated = %v", violated)
	}
	e, _ := n2.Registry.Get("r1")
	if e.GetString(AttrAffectedComponent) != "Power Supply" {
		t.Fatalf("component = %s", e.GetString(AttrAffectedComponent))
	}
	if n2.Threats.Len() != 0 {
		t.Fatalf("threats left = %d", n2.Threats.Len())
	}
}

func TestUnreachableAlarmIsUncheckable(t *testing.T) {
	c, err := node.NewCluster(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Constraints()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(AlarmSchema())
		n.RegisterSchema(ReportSchema())
		if err := n.DeployConstraints(cs); err != nil {
			t.Fatal(err)
		}
	}
	n1, n2 := c.Node(0), c.Node(1)
	// Alarm lives only on n1, report only on n2 (site-bound objects, §1.4).
	if err := n2.Create(ReportClass, "r1", NewReport("", "a1"),
		replicaOn("n2")); err != nil {
		t.Fatal(err)
	}
	if err := n1.Create(AlarmClass, "a1", NewAlarm("Signal", "r1"),
		replicaOn("n1")); err != nil {
		t.Fatal(err)
	}
	// n2 must learn about a1's placement for remote lookups.
	if _, err := n2.Repl.ReconcileWith(context.Background(), []transport.NodeID{"n1"}, nil); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	// The alarm is unreachable from n2: NCC, the validation is uncheckable;
	// min degree UNCHECKABLE accepts the threat.
	if _, err := n2.Invoke("r1", "SetAffectedComponent", "Signal Cable"); err != nil {
		t.Fatal(err)
	}
	ths := n2.Threats.All()
	if len(ths) != 1 || ths[0].Degree != constraint.Uncheckable {
		t.Fatalf("threats = %+v", ths)
	}
}

func replicaOn(id transport.NodeID) replication.Info {
	return replication.Info{Home: id, Replicas: []transport.NodeID{id}}
}
