package reconcile

import (
	"context"
	"fmt"
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/replication"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
)

func flightSchema() *object.Schema {
	s := object.NewSchema("Flight")
	s.Define("SellTickets", func(e *object.Entity, args []any) (any, error) {
		e.Set("sold", e.GetInt("sold")+args[0].(int64))
		return e.GetInt("sold"), nil
	})
	// "Rebook" does not match the Set*/Add*/... write-name convention, so
	// its kind is declared explicitly.
	s.DefineKind("Rebook", object.Write, func(e *object.Entity, args []any) (any, error) {
		e.Set("sold", e.GetInt("sold")-args[0].(int64))
		return e.GetInt("sold"), nil
	})
	return s
}

func ticketConstraint(instr constraint.ReconciliationInstructions) constraint.Configured {
	return constraint.Configured{
		Meta: constraint.Meta{
			Name:         "TicketConstraint",
			Type:         constraint.HardInvariant,
			Priority:     constraint.Tradeable,
			MinDegree:    constraint.Uncheckable,
			NeedsContext: true,
			ContextClass: "Flight",
			Instructions: instr,
			Affected: []constraint.AffectedMethod{
				{Class: "Flight", Method: "SellTickets", Prep: constraint.CalledObjectIsContext{}},
				{Class: "Flight", Method: "Rebook", Prep: constraint.CalledObjectIsContext{}},
			},
		},
		Impl: constraint.Func(func(ctx constraint.Context) (bool, error) {
			f := ctx.ContextObject()
			if f == nil {
				return false, constraint.ErrUncheckable
			}
			return f.GetInt("sold") <= f.GetInt("seats"), nil
		}),
	}
}

// setupFlightScenario prepares the §1.3 running example: 80 seats, 70 sold,
// then a partition where A sells 7 and B sells 8.
func setupFlightScenario(t *testing.T, instr constraint.ReconciliationInstructions, opts ...node.ClusterOption) *node.Cluster {
	t.Helper()
	c, err := node.NewCluster(2, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(flightSchema())
		if err := n.DeployConstraints([]constraint.Configured{ticketConstraint(instr)}); err != nil {
			t.Fatal(err)
		}
	}
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	if _, err := c.Node(0).Invoke("f1", "SellTickets", int64(7)); err != nil {
		t.Fatalf("partition A sale: %v", err)
	}
	if _, err := c.Node(1).Invoke("f1", "SellTickets", int64(8)); err != nil {
		t.Fatalf("partition B sale: %v", err)
	}
	return c
}

// mergeSold is the application's replica consistency handler: total sold is
// the base plus both partitions' increments.
func mergeSold(c replication.Conflict) (object.State, error) {
	merged := c.Local.Clone()
	local := c.Local["sold"].(int64)
	remote := c.Remote["sold"].(int64)
	// Both partitions started from 70: combine their increments.
	base := int64(70)
	merged["sold"] = base + (local - base) + (remote - base)
	return merged, nil
}

func TestFullReconciliationFlightBooking(t *testing.T) {
	c := setupFlightScenario(t, constraint.ReconciliationInstructions{})
	c.Heal()

	n1 := c.Node(0)
	var rebooked int64
	handler := func(th threat.Threat, meta constraint.Meta) bool {
		// Rebook the excess passengers to another flight (roll-forward
		// compensation, §3.3).
		e, err := n1.Registry.Get(th.ContextID)
		if err != nil {
			return false
		}
		excess := e.GetInt("sold") - e.GetInt("seats")
		if excess <= 0 {
			return true
		}
		if _, err := n1.Invoke(th.ContextID, "Rebook", excess); err != nil {
			return false
		}
		rebooked = excess
		return true
	}

	report, err := Run(context.Background(), n1, []transport.NodeID{"n2"}, Handlers{
		ReplicaResolver:   mergeSold,
		ConstraintHandler: handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Replica.Conflicts != 1 {
		t.Fatalf("replica conflicts = %d", report.Replica.Conflicts)
	}
	if report.Constraint.Violations != 1 || report.Constraint.Resolved != 1 {
		t.Fatalf("constraint report = %+v", report.Constraint)
	}
	if rebooked != 5 {
		t.Fatalf("rebooked = %d, want 5 (85 sold for 80 seats)", rebooked)
	}
	// All replicas converge to the repaired state.
	for _, n := range c.Nodes {
		e, _ := n.Registry.Get("f1")
		if e.GetInt("sold") != 80 {
			t.Fatalf("node %s sold = %d", n.ID, e.GetInt("sold"))
		}
	}
	// All threats cleaned up on the driving node.
	if n1.Threats.Len() != 0 {
		t.Fatalf("threats left = %d", n1.Threats.Len())
	}
}

func TestReconciliationDeferredWhenHandlerDeclines(t *testing.T) {
	c := setupFlightScenario(t, constraint.ReconciliationInstructions{})
	c.Heal()
	n1 := c.Node(0)
	handler := func(th threat.Threat, meta constraint.Meta) bool {
		return false // e-mail an operator; clean up later (§4.4)
	}
	report, err := Run(context.Background(), n1, []transport.NodeID{"n2"}, Handlers{
		ReplicaResolver:   mergeSold,
		ConstraintHandler: handler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Constraint.Deferred != 1 || report.Constraint.Resolved != 0 {
		t.Fatalf("report = %+v", report.Constraint)
	}
	// The threat remains until a business operation satisfies the
	// constraint again.
	if n1.Threats.Len() == 0 {
		t.Fatal("deferred threat removed prematurely")
	}
	// A satisfying operation that rolls back never became effective: the
	// threat it cleared is stored again.
	txn := n1.Begin()
	if _, err := n1.InvokeTx(txn, "f1", "Rebook", int64(5)); err != nil {
		t.Fatal(err)
	}
	if n1.Threats.Len() != 0 {
		t.Fatalf("threats inside the satisfying tx = %d", n1.Threats.Len())
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n1.Threats.Len() != 1 {
		t.Fatalf("threats after rollback of the satisfying tx = %d, want 1", n1.Threats.Len())
	}
	// The operator rebooks 5 passengers through a business operation; the
	// CCMgr detects that the constraint is satisfied by the operation and
	// removes the deferred threat from persistent storage (§4.4).
	if _, err := n1.Invoke("f1", "Rebook", int64(5)); err != nil {
		t.Fatal(err)
	}
	if n1.Threats.Len() != 0 {
		t.Fatalf("threats after satisfying business op = %d", n1.Threats.Len())
	}
	// The removal propagated to the partition peer as well.
	if c.Node(1).Threats.Len() != 0 {
		t.Fatalf("peer threats = %d", c.Node(1).Threats.Len())
	}
}

func TestReconciliationSatisfiedThreatsJustRemoved(t *testing.T) {
	c, err := node.NewCluster(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(flightSchema())
		if err := n.DeployConstraints([]constraint.Configured{ticketConstraint(constraint.ReconciliationInstructions{})}); err != nil {
			t.Fatal(err)
		}
	}
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	// Only one partition sells: no conflict, constraint holds after heal.
	if _, err := n1.Invoke("f1", "SellTickets", int64(5)); err != nil {
		t.Fatal(err)
	}
	if n1.Threats.Len() != 1 {
		t.Fatalf("threats = %d", n1.Threats.Len())
	}
	c.Heal()
	report, err := Run(context.Background(), n1, []transport.NodeID{"n2"}, Handlers{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Replica.Conflicts != 0 || report.Constraint.Removed != 1 {
		t.Fatalf("report = %+v / %+v", report.Replica, report.Constraint)
	}
	if n1.Threats.Len() != 0 {
		t.Fatal("satisfied threat not removed")
	}
	e2, _ := c.Node(1).Registry.Get("f1")
	if e2.GetInt("sold") != 5 {
		t.Fatalf("n2 not caught up: %d", e2.GetInt("sold"))
	}
}

func TestReconciliationPostponesWhileStillPartitioned(t *testing.T) {
	c, err := node.NewCluster(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(flightSchema())
		if err := n.DeployConstraints([]constraint.Configured{ticketConstraint(constraint.ReconciliationInstructions{})}); err != nil {
			t.Fatal(err)
		}
	}
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"}, []transport.NodeID{"n3"})
	if _, err := n1.Invoke("f1", "SellTickets", int64(5)); err != nil {
		t.Fatal(err)
	}
	// Only n1 and n2 re-unify; n3 stays apart, so the system remains
	// degraded and the threat is postponed (§3.3: re-evaluation postponed
	// until further partitions are re-unified).
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	report, err := Run(context.Background(), n1, []transport.NodeID{"n2"}, Handlers{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Constraint.Postponed != 1 || report.Constraint.Removed != 0 {
		t.Fatalf("report = %+v", report.Constraint)
	}
	if n1.Threats.Len() != 1 {
		t.Fatal("postponed threat removed")
	}
}

func TestConflictNotifierInvoked(t *testing.T) {
	// Threat satisfied after reconciliation but with an underlying replica
	// conflict and the NotifyOnReplicaConflict instruction.
	c := setupFlightScenario(t, constraint.ReconciliationInstructions{NotifyOnReplicaConflict: true})
	c.Heal()
	n1 := c.Node(0)
	var notified []object.ID
	resolver := func(cf replication.Conflict) (object.State, error) {
		// Resolve to a consistent (non-overbooked) state: keep local.
		return cf.Local, nil
	}
	peerThreats := -1
	report, err := Run(context.Background(), n1, []transport.NodeID{"n2"}, Handlers{
		ReplicaResolver: resolver,
		ConflictNotifier: func(th threat.Threat, ids []object.ID) {
			notified = ids
			peerThreats = c.Node(1).Threats.Len()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Constraint.Notified != 1 {
		t.Fatalf("notified = %d", report.Constraint.Notified)
	}
	// The satisfied threat's removal is announced before application code runs.
	if peerThreats != 0 {
		t.Fatalf("n2 held %d threats when the notifier ran", peerThreats)
	}
	if len(notified) != 1 || notified[0] != "f1" {
		t.Fatalf("notified ids = %v", notified)
	}
}

func TestRollbackReconciliation(t *testing.T) {
	// With history recording and AllowRollback, a violated constraint is
	// repaired by rolling the object back to a consistent historical state.
	c := setupFlightScenario(t,
		constraint.ReconciliationInstructions{AllowRollback: true},
		func(o *node.Options) { o.KeepHistory = true },
	)
	c.Heal()
	n1 := c.Node(0)
	report, err := Run(context.Background(), n1, []transport.NodeID{"n2"}, Handlers{
		ReplicaResolver:  mergeSold, // 85 sold: violated
		DropHistoryAfter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Constraint.RolledBack != 1 {
		t.Fatalf("report = %+v", report.Constraint)
	}
	// The rolled-back state must satisfy the constraint on all nodes; the
	// availability cost is that some updates did not become effective.
	for _, n := range c.Nodes {
		e, _ := n.Registry.Get("f1")
		if sold := e.GetInt("sold"); sold > 80 {
			t.Fatalf("node %s still overbooked: %d", n.ID, sold)
		}
	}
	if len(n1.Repl.History("f1")) != 0 {
		t.Fatal("history not dropped")
	}
}

func TestAutoReconciliationOnHeal(t *testing.T) {
	c := setupFlightScenario(t, constraint.ReconciliationInstructions{})
	n1 := c.Node(0)
	var reports []Report
	Auto(n1, Handlers{ReplicaResolver: mergeSold, ConstraintHandler: func(th threat.Threat, meta constraint.Meta) bool {
		e, err := n1.Registry.Get(th.ContextID)
		if err != nil {
			return false
		}
		if excess := e.GetInt("sold") - e.GetInt("seats"); excess > 0 {
			if _, err := n1.Invoke(th.ContextID, "Rebook", excess); err != nil {
				return false
			}
		}
		return true
	}}, func(r Report, err error) {
		if err != nil {
			t.Errorf("auto reconcile: %v", err)
		}
		reports = append(reports, r)
	})
	c.Heal()
	if len(reports) != 1 {
		t.Fatalf("auto passes = %d", len(reports))
	}
	e, _ := n1.Registry.Get("f1")
	if e.GetInt("sold") != 80 {
		t.Fatalf("sold after auto reconcile = %d", e.GetInt("sold"))
	}
}

func TestRunWithoutReplication(t *testing.T) {
	c, err := node.NewCluster(1, nil, func(o *node.Options) { o.DisableReplication = true })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), c.Node(0), nil, Handlers{}); err == nil {
		t.Fatal("Run without replication should fail")
	}
}

func TestDisableViolatedConstraintsAlternative(t *testing.T) {
	// The §3.3 alternative: instead of resolving the violation, deactivate
	// the violated constraint to reach the healthy state.
	c := setupFlightScenario(t, constraint.ReconciliationInstructions{})
	c.Heal()
	n1 := c.Node(0)
	n1.CCM.SetDisableViolatedConstraints(true)
	report, err := Run(context.Background(), n1, []transport.NodeID{"n2"}, Handlers{ReplicaResolver: mergeSold})
	if err != nil {
		t.Fatal(err)
	}
	if report.Constraint.Disabled != 1 || report.Constraint.Resolved != 0 {
		t.Fatalf("report = %+v", report.Constraint)
	}
	if n1.Threats.Len() != 0 {
		t.Fatalf("threats = %d", n1.Threats.Len())
	}
	reg, err := n1.Repo.Get("TicketConstraint")
	if err != nil {
		t.Fatal(err)
	}
	if reg.Enabled() {
		t.Fatal("violated constraint still enabled")
	}
	// Consistency is relaxed: the overbooked flight stays overbooked and
	// further sales are no longer constrained.
	if _, err := n1.Invoke("f1", "SellTickets", int64(1)); err != nil {
		t.Fatalf("unconstrained sale: %v", err)
	}
}

// TestReconcileMessagesDoNotGrowWithObjects splits {n1,n2}|{n3,n4}, sells
// tickets of every flight on both sides — a conflict and a stored threat per
// flight — heals, and counts the messages of one pass from n1, whether 8
// flights diverged or 64. Each peer is sent five: the record pull
// (repl.pull), the repairs (repl.batch), the threat exchange
// (ccm.threat.sync), the naming exchange (naming.sync) and the removals (a
// repl.batch with no ops, behind the repairs on the peer's sender).
// Per-object sends would add some ten messages a flight: its resolution to
// three peers and once more to the last, its threat to three, its removal to
// three.
func TestReconcileMessagesDoNotGrowWithObjects(t *testing.T) {
	pass := func(flights int) int64 {
		c, err := node.NewCluster(4, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range c.Nodes {
			n.RegisterSchema(flightSchema())
			if err := n.DeployConstraints([]constraint.Configured{ticketConstraint(constraint.ReconciliationInstructions{})}); err != nil {
				t.Fatal(err)
			}
		}
		n1, n3 := c.Node(0), c.Node(2)
		ids := make([]object.ID, flights)
		for i := range ids {
			ids[i] = object.ID(fmt.Sprintf("f%02d", i))
			if err := n1.Create("Flight", ids[i], object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas("n1")); err != nil {
				t.Fatal(err)
			}
		}
		c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3", "n4"})
		for _, id := range ids {
			if _, err := n1.Invoke(id, "SellTickets", int64(7)); err != nil {
				t.Fatal(err)
			}
			if _, err := n3.Invoke(id, "SellTickets", int64(8)); err != nil {
				t.Fatal(err)
			}
		}
		c.Heal()
		before := c.Net.Observer().Snapshot().Counters
		report, err := Run(context.Background(), n1, []transport.NodeID{"n2", "n3", "n4"}, Handlers{})
		if err != nil {
			t.Fatal(err)
		}
		after := c.Net.Observer().Snapshot().Counters
		for _, name := range []string{"transport.failures", "transport.messages"} {
			if _, ok := after[name]; !ok {
				t.Fatalf("no counter %q registered", name)
			}
		}
		if report.Replica.Conflicts != flights || report.Constraint.Removed != flights {
			t.Fatalf("%d flights: report = %+v / %+v, want a conflict and a removed threat each", flights, report.Replica, report.Constraint)
		}
		for _, n := range c.Nodes {
			if n.Threats.Len() != 0 {
				t.Errorf("%d flights: %s still holds %d threats", flights, n.ID, n.Threats.Len())
			}
			for _, id := range ids {
				if e, err := n.Registry.Get(id); err != nil || e.GetInt("sold") != 7 {
					t.Fatalf("%d flights: %s on %s: %v, %v, want the driver's 7 sold", flights, id, n.ID, e, err)
				}
			}
		}
		if failed := after["transport.failures"] - before["transport.failures"]; failed != 0 {
			t.Errorf("%d flights: %d sends failed", flights, failed)
		}
		return after["transport.messages"] - before["transport.messages"]
	}
	few, many := pass(8), pass(64)
	t.Logf("messages: %d and %d", few, many)
	if few != many || many > 5*3 {
		t.Fatalf("one pass cost %d messages over 8 diverged flights and %d over 64, want the same and at most 5 per peer", few, many)
	}
}

// TestOneRunConvergesBindingsBothWays: after a {n1}|{n2} split in which each
// side binds a name, a heal and one reconcile.Run from n1 leave both nodes
// resolving both names: the naming exchange carries each side's table.
func TestOneRunConvergesBindingsBothWays(t *testing.T) {
	c, err := node.NewCluster(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := c.Node(0), c.Node(1)
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	if err := n1.Naming.Bind("left", "o1"); err != nil {
		t.Fatal(err)
	}
	if err := n2.Naming.Bind("right", "o2"); err != nil {
		t.Fatal(err)
	}
	c.Heal()
	if _, err := Run(context.Background(), n1, []transport.NodeID{"n2"}, Handlers{}); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		for name, want := range map[string]object.ID{"left": "o1", "right": "o2"} {
			if id, err := n.Naming.Lookup(name); err != nil || id != want {
				t.Errorf("%s resolves %q to %q, %v; want %q", n.ID, name, id, err, want)
			}
		}
	}
}
