package node

import (
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/core"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/replication"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
)

// counter reads a counter of o's registry; a name nothing registered fails
// the test instead of reading 0. A node's own counters carry its ID as a
// prefix ("n1.core.validations"); the network's carry none.
func counter(t *testing.T, o *obs.Observer, name string) int64 {
	t.Helper()
	v, ok := o.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q registered", name)
	}
	return v
}

// flightSchema builds the Flight class of the running example (§1.3).
func flightSchema() *object.Schema {
	s := object.NewSchema("Flight")
	s.Define("SellTickets", func(e *object.Entity, args []any) (any, error) {
		count := args[0].(int64)
		e.Set("sold", e.GetInt("sold")+count)
		return e.GetInt("sold"), nil
	})
	s.Define("Sold", func(e *object.Entity, args []any) (any, error) {
		return e.GetInt("sold"), nil
	})
	s.Define("Seats", func(e *object.Entity, args []any) (any, error) {
		return e.GetInt("seats"), nil
	})
	s.DefineKind("Empty", object.Write, func(e *object.Entity, args []any) (any, error) {
		return nil, nil
	})
	return s
}

// ticketConstraint is the ticket-constraint of Figure 1.6 / Listing 1.2.
func ticketConstraint(minDegree constraint.Degree, prio constraint.Priority, ctype constraint.Type) constraint.Configured {
	return constraint.Configured{
		Meta: constraint.Meta{
			Name:         "TicketConstraint",
			Type:         ctype,
			Priority:     prio,
			MinDegree:    minDegree,
			NeedsContext: true,
			ContextClass: "Flight",
			Affected: []constraint.AffectedMethod{
				{Class: "Flight", Method: "SellTickets", Prep: constraint.CalledObjectIsContext{}},
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

func newFlightCluster(t testing.TB, size int, opts ...ClusterOption) *Cluster {
	t.Helper()
	c, err := NewCluster(size, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(flightSchema())
	}
	return c
}

func deployTicket(t testing.TB, c *Cluster, cfg constraint.Configured) {
	t.Helper()
	for _, n := range c.Nodes {
		if err := n.DeployConstraints([]constraint.Configured{cfg}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHealthyConstraintEnforcement(t *testing.T) {
	c := newFlightCluster(t, 3)
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.HardInvariant))
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}

	// Within capacity: commits and propagates.
	if _, err := n1.Invoke("f1", "SellTickets", int64(10)); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		e, err := n.Registry.Get("f1")
		if err != nil || e.GetInt("sold") != 80 {
			t.Fatalf("node %s sold = %v (%v)", n.ID, e, err)
		}
	}

	// Over capacity: violation aborts, state restored everywhere.
	_, err := n1.Invoke("f1", "SellTickets", int64(1))
	if !core.IsViolation(err) {
		t.Fatalf("overbooking err = %v", err)
	}
	for _, n := range c.Nodes {
		e, _ := n.Registry.Get("f1")
		if e.GetInt("sold") != 80 {
			t.Fatalf("node %s sold after abort = %d", n.ID, e.GetInt("sold"))
		}
	}
	if violations, validations := counter(t, c.Obs, "n1.core.violations"), counter(t, c.Obs, "n1.core.validations"); violations != 1 || validations < 2 {
		t.Fatalf("violations = %d, validations = %d; want 1, >= 2", violations, validations)
	}
}

func TestRemoteWriteRoutedToCoordinator(t *testing.T) {
	c := newFlightCluster(t, 3)
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.HardInvariant))
	n1, n3 := c.Node(0), c.Node(2)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	// n3 is not the home: the write must be forwarded to n1 and still apply.
	if _, err := n3.Invoke("f1", "SellTickets", int64(5)); err != nil {
		t.Fatal(err)
	}
	e1, _ := n1.Registry.Get("f1")
	e3, _ := n3.Registry.Get("f1")
	if e1.GetInt("sold") != 5 || e3.GetInt("sold") != 5 {
		t.Fatalf("sold = %d / %d", e1.GetInt("sold"), e3.GetInt("sold"))
	}
	// A transactional write on the wrong node is rejected.
	txn := n3.Begin()
	if _, err := n3.InvokeTx(txn, "f1", "SellTickets", int64(1)); !errors.Is(err, ErrNotCoordinator) {
		t.Fatalf("InvokeTx off-coordinator err = %v", err)
	}
	_ = txn.Rollback()
}

func TestReadsServedLocally(t *testing.T) {
	c := newFlightCluster(t, 3)
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(7)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	before := counter(t, c.Obs, "transport.messages")
	got, err := c.Node(2).Invoke("f1", "Sold")
	if err != nil || got.(int64) != 7 {
		t.Fatalf("read = %v, %v", got, err)
	}
	if msgs := counter(t, c.Obs, "transport.messages") - before; msgs != 0 {
		t.Fatalf("local read used %d network messages", msgs)
	}
}

func TestDegradedThreatAcceptedAndStored(t *testing.T) {
	c := newFlightCluster(t, 3)
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.HardInvariant))
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	if c.Node(0).Mode() != core.Degraded {
		t.Fatalf("mode = %v", c.Node(0).Mode())
	}

	// Selling in partition A succeeds as a possibly-satisfied threat.
	if _, err := n1.Invoke("f1", "SellTickets", int64(7)); err != nil {
		t.Fatal(err)
	}
	if detected, accepted := counter(t, c.Obs, "n1.core.threats.detected"), counter(t, c.Obs, "n1.core.threats.accepted"); detected != 1 || accepted != 1 {
		t.Fatalf("threats detected = %d, accepted = %d; want 1, 1", detected, accepted)
	}
	if n1.Threats.Len() != 1 {
		t.Fatalf("threats stored = %d", n1.Threats.Len())
	}
	// The threat replicated to the partition peer n2, not to n3.
	if c.Node(1).Threats.Len() != 1 {
		t.Fatalf("n2 threats = %d", c.Node(1).Threats.Len())
	}
	if c.Node(2).Threats.Len() != 0 {
		t.Fatalf("n3 threats = %d", c.Node(2).Threats.Len())
	}
	got := n1.Threats.All()[0]
	if got.Constraint != "TicketConstraint" || got.ContextID != "f1" || got.Degree != constraint.PossiblySatisfied {
		t.Fatalf("threat = %+v", got)
	}
}

func TestDegradedThreatRejectedByStaticConfig(t *testing.T) {
	c := newFlightCluster(t, 2)
	// min degree Satisfied means any threat is rejected.
	deployTicket(t, c, ticketConstraint(constraint.Satisfied, constraint.Tradeable, constraint.HardInvariant))
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	_, err := n1.Invoke("f1", "SellTickets", int64(1))
	if !errors.Is(err, core.ErrThreatRejected) {
		t.Fatalf("err = %v", err)
	}
	e, _ := n1.Registry.Get("f1")
	if e.GetInt("sold") != 70 {
		t.Fatalf("state after rejected threat = %d", e.GetInt("sold"))
	}
	if n1.Threats.Len() != 0 {
		t.Fatal("rejected threat was stored")
	}
}

func TestNonTradeableBlocksInDegradedMode(t *testing.T) {
	c := newFlightCluster(t, 2)
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.NonTradeable, constraint.HardInvariant))
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	// Healthy: works.
	if _, err := n1.Invoke("f1", "SellTickets", int64(1)); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	// Degraded: the conventional fallback — the operation blocks (aborts).
	if _, err := n1.Invoke("f1", "SellTickets", int64(1)); !errors.Is(err, core.ErrThreatRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestDynamicNegotiationHandler(t *testing.T) {
	c := newFlightCluster(t, 2)
	deployTicket(t, c, ticketConstraint(constraint.Satisfied, constraint.Tradeable, constraint.HardInvariant))
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})

	// Static config would reject (min Satisfied); a dynamic handler bound to
	// the transaction accepts and wins (§3.2.1 priority order).
	var sawDegree constraint.Degree
	txn := n1.Begin()
	n1.CCM.RegisterNegotiationHandler(txn, func(nc *threat.NegotiationContext) threat.Decision {
		sawDegree = nc.Degree
		nc.AppData = map[string]string{"operator": "alice"}
		return threat.Accept
	})
	if _, err := n1.InvokeTx(txn, "f1", "SellTickets", int64(3)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if sawDegree != constraint.PossiblySatisfied {
		t.Fatalf("handler saw degree %v", sawDegree)
	}
	ths := n1.Threats.All()
	if len(ths) != 1 || ths[0].AppData["operator"] != "alice" {
		t.Fatalf("threats = %+v", ths)
	}
}

func TestThreatRollbackRemovesStoredThreat(t *testing.T) {
	c := newFlightCluster(t, 2)
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.HardInvariant))
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	txn := n1.Begin()
	if _, err := n1.InvokeTx(txn, "f1", "SellTickets", int64(1)); err != nil {
		t.Fatal(err)
	}
	if n1.Threats.Len() != 1 {
		t.Fatal("threat not stored during tx")
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n1.Threats.Len() != 0 {
		t.Fatal("threat survived rollback")
	}
}

func TestSoftConstraintCheckedAtCommit(t *testing.T) {
	c := newFlightCluster(t, 1)
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.SoftInvariant))
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(79)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	txn := n1.Begin()
	// The violation is NOT detected at operation end...
	if _, err := n1.InvokeTx(txn, "f1", "SellTickets", int64(5)); err != nil {
		t.Fatalf("soft constraint checked too early: %v", err)
	}
	// ...but at commit (prepare of the 2PC).
	err := txn.Commit()
	if err == nil || !core.IsViolation(err) {
		t.Fatalf("commit err = %v", err)
	}
	e, _ := n1.Registry.Get("f1")
	if e.GetInt("sold") != 79 {
		t.Fatalf("state after failed commit = %d", e.GetInt("sold"))
	}
}

func TestAsyncConstraintSkipsValidationWhenDegraded(t *testing.T) {
	c := newFlightCluster(t, 2)
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.AsyncInvariant))
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(79)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	// Healthy: behaves like a soft constraint (violation at commit).
	txn := n1.Begin()
	if _, err := n1.InvokeTx(txn, "f1", "SellTickets", int64(5)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); !core.IsViolation(err) {
		t.Fatalf("healthy async commit err = %v", err)
	}

	// Degraded: no validation, no negotiation — a threat is stored directly
	// and the (over-selling!) operation commits.
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	if _, err := n1.Invoke("f1", "SellTickets", int64(5)); err != nil {
		t.Fatalf("degraded async op err = %v", err)
	}
	if got := counter(t, c.Obs, "n1.core.async_shortcuts"); got != 1 {
		t.Fatalf("async shortcuts = %d", got)
	}
	if n1.Threats.Len() != 1 {
		t.Fatalf("threats = %d", n1.Threats.Len())
	}
	e, _ := n1.Registry.Get("f1")
	if e.GetInt("sold") != 84 {
		t.Fatalf("sold = %d", e.GetInt("sold"))
	}
}

func TestPrePostConditions(t *testing.T) {
	c := newFlightCluster(t, 1)
	n1 := c.Node(0)

	pre := constraint.Configured{
		Meta: constraint.Meta{
			Name: "PositiveCount", Type: constraint.Pre,
			Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
			Affected: []constraint.AffectedMethod{{Class: "Flight", Method: "SellTickets", Prep: constraint.CalledObjectIsContext{}}},
		},
		Impl: constraint.Func(func(ctx constraint.Context) (bool, error) {
			return ctx.Args()[0].(int64) > 0, nil
		}),
	}
	// Postcondition with an @pre capture: sold must grow by exactly count.
	post := constraint.Configured{
		Meta: constraint.Meta{
			Name: "SoldGrowsByCount", Type: constraint.Post,
			Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
			Affected: []constraint.AffectedMethod{{Class: "Flight", Method: "SellTickets", Prep: constraint.CalledObjectIsContext{}}},
		},
		Impl: &soldGrowsConstraint{},
	}
	if err := n1.DeployConstraints([]constraint.Configured{pre, post}); err != nil {
		t.Fatal(err)
	}
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Invoke("f1", "SellTickets", int64(3)); err != nil {
		t.Fatal(err)
	}
	// Precondition violation: non-positive count.
	if _, err := n1.Invoke("f1", "SellTickets", int64(0)); !core.IsViolation(err) {
		t.Fatalf("pre violation err = %v", err)
	}
	e, _ := n1.Registry.Get("f1")
	if e.GetInt("sold") != 3 {
		t.Fatalf("sold = %d", e.GetInt("sold"))
	}
}

// soldGrowsConstraint checks a state transition using the @pre mechanism
// (beforeMethodInvocation of Figure 4.3).
type soldGrowsConstraint struct{}

func (s *soldGrowsConstraint) BeforeInvocation(ctx constraint.Context) {
	ctx.PreState()["sold"] = ctx.CalledObject().GetInt("sold")
}

func (s *soldGrowsConstraint) Validate(ctx constraint.Context) (bool, error) {
	before, _ := ctx.PreState()["sold"].(int64)
	count := ctx.Args()[0].(int64)
	return ctx.CalledObject().GetInt("sold") == before+count, nil
}

func TestCreateValidatesInvariants(t *testing.T) {
	c := newFlightCluster(t, 1)
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.HardInvariant))
	n1 := c.Node(0)
	err := n1.Create("Flight", "bad", object.State{"seats": int64(10), "sold": int64(20)}, c.AllReplicas("n1"))
	if !core.IsViolation(err) {
		t.Fatalf("invalid create err = %v", err)
	}
	if n1.Registry.Has("bad") {
		t.Fatal("invalid entity persisted")
	}
}

func TestNoCCMConfiguration(t *testing.T) {
	c, err := NewCluster(1, nil, func(o *Options) { o.DisableCCM = true })
	if err != nil {
		t.Fatal(err)
	}
	n1 := c.Node(0)
	n1.RegisterSchema(flightSchema())
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(1), "sold": int64(99)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	// No constraints enforced at all.
	if _, err := n1.Invoke("f1", "SellTickets", int64(5)); err != nil {
		t.Fatal(err)
	}
	if n1.CCM != nil {
		t.Fatal("CCM should be nil")
	}
}

func TestSingleUnreplicatedNode(t *testing.T) {
	c, err := NewCluster(1, nil, func(o *Options) { o.DisableReplication = true })
	if err != nil {
		t.Fatal(err)
	}
	n1 := c.Node(0)
	n1.RegisterSchema(flightSchema())
	deployTicket(t, c, ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.HardInvariant))
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(2), "sold": int64(0)}, replication.Info{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Invoke("f1", "SellTickets", int64(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Invoke("f1", "SellTickets", int64(1)); !core.IsViolation(err) {
		t.Fatalf("err = %v", err)
	}
	if err := n1.Delete("f1"); err != nil {
		t.Fatal(err)
	}
	if n1.Registry.Has("f1") {
		t.Fatal("delete failed")
	}
}

func TestEmptyMethodTreatedAsWrite(t *testing.T) {
	c := newFlightCluster(t, 2)
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	// "Empty" adheres to no naming convention and is treated as a write "to
	// be on the safe side" (§5.1): it must execute on the primary.
	if _, err := c.Node(1).Invoke("f1", "Empty"); err != nil {
		t.Fatal(err)
	}
}

func TestClusterHelpers(t *testing.T) {
	c := newFlightCluster(t, 3)
	if c.ByID("n2") != c.Node(1) {
		t.Fatal("ByID mismatch")
	}
	ids := c.IDs()
	if len(ids) != 3 || ids[0] != "n1" {
		t.Fatalf("IDs = %v", ids)
	}
	info := c.AllReplicas("n2")
	if info.Home != "n2" || len(info.Replicas) != 3 {
		t.Fatalf("AllReplicas = %+v", info)
	}
	if _, err := NewCluster(0, nil); err != nil {
		_ = err // size 0 simply yields an empty cluster; not an error
	}
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without deps should fail")
	}
}

func TestConcurrentInvokesOnDifferentObjects(t *testing.T) {
	c := newFlightCluster(t, 2)
	n1 := c.Node(0)
	for i := 0; i < 4; i++ {
		id := object.ID(fmt.Sprintf("f%d", i))
		if err := n1.Create("Flight", id, object.State{"seats": int64(1000), "sold": int64(0)}, c.AllReplicas("n1")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		id := object.ID(fmt.Sprintf("f%d", i))
		go func() {
			var err error
			for j := 0; j < 25 && err == nil; j++ {
				_, err = n1.Invoke(id, "SellTickets", int64(1))
			}
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		e, _ := n1.Registry.Get(object.ID(fmt.Sprintf("f%d", i)))
		if e.GetInt("sold") != 25 {
			t.Fatalf("f%d sold = %d", i, e.GetInt("sold"))
		}
	}
}

func TestCaptureAffectedStateWithThreat(t *testing.T) {
	c := newFlightCluster(t, 2)
	cfg := ticketConstraint(constraint.Uncheckable, constraint.Tradeable, constraint.HardInvariant)
	cfg.Meta.CaptureAffectedState = true
	deployTicket(t, c, cfg)
	n1 := c.Node(0)
	if err := n1.Create("Flight", "f1", object.State{"seats": int64(80), "sold": int64(70)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	if _, err := n1.Invoke("f1", "SellTickets", int64(7)); err != nil {
		t.Fatal(err)
	}
	ths := n1.Threats.All()
	if len(ths) != 1 || len(ths[0].Affected) == 0 {
		t.Fatalf("threats = %+v", ths)
	}
	st := ths[0].Affected[0].State
	if st == nil {
		t.Fatal("affected state not captured")
	}
	// The snapshot records the state at threat time (77 sold).
	if st["sold"].(int64) != 77 {
		t.Fatalf("captured sold = %v", st["sold"])
	}
}

// TestCommitStoresEntityAndVectorBytes reads back what a create and one
// replicated write leave in the store: each replica's one record, written by
// the record's own encoder from the entity and the replica table. The
// coordinator's record after the create must stay the bytes below — the
// create op's wire form; after the write, every replica's record must read
// back as what the replica holds, odd strings and a string list included.
func TestCommitStoresEntityAndVectorBytes(t *testing.T) {
	c := newFlightCluster(t, 3)
	n1 := c.Node(0)
	state := object.State{"seats": int64(80), "sold": int64(0), "route": "VIE<->GRZ & back", "crew": []string{"a", "b"}}
	if err := n1.Create("Flight", "f1", state, c.AllReplicas(n1.ID)); err != nil {
		t.Fatal(err)
	}
	var raw rawRecord
	if err := n1.Store.Get("replica-meta", "f1", &raw); err != nil {
		t.Fatal(err)
	}
	const wantCreate = "0102663105046372657709020161016205726f757465031056494" +
		"53c2d3e47525a2026206261636b05736561747305a00104736f6c6405000202026e310206466c69676874026e3103026e31026e32026e33"
	if got := hex.EncodeToString(raw); got != wantCreate {
		t.Errorf("n1 replica-meta/f1 after the create = %s, want %s", got, wantCreate)
	}
	if _, err := n1.Invoke("f1", "SellTickets", int64(3)); err != nil {
		t.Fatal(err)
	}
	expectRecords(t, c, "f1")
	for _, n := range c.Nodes {
		var back replication.Record
		if err := n.Store.Get("replica-meta", "f1", &back); err != nil {
			t.Fatal(err)
		}
		if sold, _ := back.State.Get("sold"); sold != int64(3) {
			t.Errorf("%s: record holds sold %v", n.ID, sold)
		}
		if route, _ := back.State.Get("route"); route != "VIE<->GRZ & back" {
			t.Errorf("%s: record holds route %q", n.ID, route)
		}
	}
}

// rawRecord reads a stored record's bytes as they are.
type rawRecord []byte

func (b *rawRecord) ReadWire(r *transport.WireReader) {
	for *b = nil; r.Len() > 0; {
		*b = append(*b, r.Byte())
	}
}

// TestReadMethodCannotWrite: "Peek" is a read by its name, and it sets its
// object's balance. A read has no write mark, so its change would escape the
// undo log, the store and replication: the coordinator alone held -30 at
// version 2, every other replica 50 at version 1, and the call returned nil.
// Now the call fails and no replica changes; a write after it replicates as
// before.
func TestReadMethodCannotWrite(t *testing.T) {
	c, err := NewCluster(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := object.NewSchema("Acct")
	s.Define("SetBal", func(e *object.Entity, args []any) (any, error) {
		e.Set("bal", args[0])
		return nil, nil
	})
	s.Define("Peek", func(e *object.Entity, args []any) (any, error) {
		e.Set("bal", int64(-30))
		return e.GetInt("bal"), nil
	})
	for _, n := range c.Nodes {
		n.RegisterSchema(s)
	}
	n1 := c.Node(0)
	if err := n1.Create("Acct", "a", object.State{"bal": int64(50)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	expect := func(what string, bal, version int64) {
		t.Helper()
		for _, n := range c.Nodes {
			e, err := n.Registry.Get("a")
			if err != nil {
				t.Fatal(err)
			}
			if got, v := e.GetInt("bal"), e.Version(); got != bal || v != version {
				t.Errorf("%s: %s holds %d at version %d, want %d at %d", what, n.ID, got, v, bal, version)
			}
		}
	}
	for _, n := range c.Nodes {
		if res, err := n.Invoke("a", "Peek"); err == nil {
			t.Errorf("a read method that writes returned %v at %s", res, n.ID)
		}
	}
	expect("after the writing reads", 50, 1)
	if _, err := n1.Invoke("a", "SetBal", int64(70)); err != nil {
		t.Fatal(err)
	}
	expect("after a write", 70, 2)
}
