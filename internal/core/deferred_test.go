package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/invocation"
	"dedisys/internal/object"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
	"dedisys/internal/tx"
)

// deferredEnv drives a degraded-mode invocation with a deferred handler.
func runDeferredOp(t *testing.T, decision threat.Decision, delay time.Duration) (*replEnv, error, *atomic.Int32) {
	t.Helper()
	env := newReplEnv(t)
	env.createFlight(t, "f1", 0, 10)
	meta := constraint.Meta{
		Name: "C1", Type: constraint.HardInvariant,
		Priority: constraint.Tradeable, MinDegree: constraint.Satisfied,
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
	env.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})

	var calls atomic.Int32
	txn := env.txm.Begin()
	env.ccm.RegisterDeferredNegotiationHandler(txn, func(nc *threat.NegotiationContext) threat.Decision {
		calls.Add(1)
		time.Sleep(delay)
		return decision
	})
	ent, _ := env.reg.Get("f1")
	inv := &invocation.Invocation{Node: "n1", Target: "f1", Class: "Flight", Method: "SetSold", Kind: object.Write, Args: []any{int64(1)}, Tx: txn}
	chain := invocation.NewChain(func(inv *invocation.Invocation) (any, error) {
		txn.RecordUpdate(ent)
		ent.Set("sold", inv.Args[0])
		return nil, nil
	}, env.ccm.Interceptor())

	// The operation must NOT block on the threat: it continues while the
	// decision is computed in parallel.
	opStart := time.Now()
	if _, err := chain.Dispatch(inv); err != nil {
		t.Fatalf("deferred op blocked or failed: %v", err)
	}
	if elapsed := time.Since(opStart); delay > 0 && elapsed > delay/2 {
		t.Fatalf("operation waited for the negotiation: %v", elapsed)
	}
	return env, txn.Commit(), &calls
}

func TestDeferredNegotiationAccepted(t *testing.T) {
	env, err, calls := runDeferredOp(t, threat.Accept, 30*time.Millisecond)
	if err != nil {
		t.Fatalf("commit after accepted deferred threat: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler calls = %d", calls.Load())
	}
	if env.ths.Len() != 1 {
		t.Fatalf("threats stored = %d", env.ths.Len())
	}
	if accepted, rejected := counter(t, env.obs, "core.threats.accepted"), counter(t, env.obs, "core.threats.rejected"); accepted != 1 || rejected != 0 {
		t.Fatalf("threats accepted = %d, rejected = %d; want 1, 0", accepted, rejected)
	}
}

func TestDeferredNegotiationRejectedVetoesCommit(t *testing.T) {
	env, err, _ := runDeferredOp(t, threat.Reject, 10*time.Millisecond)
	if !errors.Is(err, ErrThreatRejected) {
		t.Fatalf("commit err = %v", err)
	}
	// The optimistic write was rolled back.
	e, _ := env.reg.Get("f1")
	if e.GetInt("sold") != 0 {
		t.Fatalf("sold after veto = %d", e.GetInt("sold"))
	}
	if env.ths.Len() != 0 {
		t.Fatalf("threats stored = %d", env.ths.Len())
	}
}

func TestDeferredFallsBackForNonTradeable(t *testing.T) {
	env := newReplEnv(t)
	env.createFlight(t, "f1", 0, 10)
	meta := constraint.Meta{
		Name: "Critical", Type: constraint.HardInvariant,
		Priority: constraint.NonTradeable, MinDegree: constraint.Satisfied,
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
	env.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	txn := env.txm.Begin()
	env.ccm.RegisterDeferredNegotiationHandler(txn, func(nc *threat.NegotiationContext) threat.Decision {
		return threat.Accept // must not be able to override non-tradeable
	})
	ent, _ := env.reg.Get("f1")
	inv := &invocation.Invocation{Node: "n1", Target: "f1", Class: "Flight", Method: "SetSold", Kind: object.Write, Args: []any{int64(1)}, Tx: txn}
	chain := invocation.NewChain(func(inv *invocation.Invocation) (any, error) {
		txn.RecordUpdate(ent)
		ent.Set("sold", inv.Args[0])
		return nil, nil
	}, env.ccm.Interceptor())
	// Non-tradeable threats reject immediately, even in deferred mode.
	if _, err := chain.Dispatch(inv); !errors.Is(err, ErrThreatRejected) {
		t.Fatalf("err = %v", err)
	}
	_ = txn.Rollback()
}

func TestDeferredNegotiationCarriesAppData(t *testing.T) {
	env := newReplEnv(t)
	env.createFlight(t, "f1", 0, 10)
	meta := constraint.Meta{
		Name: "C1", Type: constraint.HardInvariant,
		Priority: constraint.Tradeable, MinDegree: constraint.Satisfied,
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
	env.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	txn := env.txm.Begin()
	env.ccm.RegisterDeferredNegotiationHandler(txn, func(nc *threat.NegotiationContext) threat.Decision {
		nc.AppData = map[string]string{"operator": "bob"}
		return threat.Accept
	})
	ent, _ := env.reg.Get("f1")
	inv := &invocation.Invocation{Node: "n1", Target: "f1", Class: "Flight", Method: "SetSold", Kind: object.Write, Args: []any{int64(1)}, Tx: txn}
	chain := invocation.NewChain(func(inv *invocation.Invocation) (any, error) {
		txn.RecordUpdate(ent)
		ent.Set("sold", inv.Args[0])
		return nil, nil
	}, env.ccm.Interceptor())
	if _, err := chain.Dispatch(inv); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	ths := env.ths.All()
	if len(ths) != 1 || ths[0].AppData["operator"] != "bob" {
		t.Fatalf("threats = %+v", ths)
	}
}

// TestNegotiatedContextIsNotRecycled: a deferred handler still running after
// its operation failed reads what its own validation gathered, however many
// validations ran in the meantime on contexts that went back to the free list.
func TestNegotiatedContextIsNotRecycled(t *testing.T) {
	env := newReplEnv(t)
	env.createFlight(t, "f1", 0, 10)
	env.createFlight(t, "f2", 0, 10)
	for _, c := range []struct {
		name, method string
		scope        constraint.Scope
		valid        func(e *object.Entity) bool
	}{
		// Inter-object: possibly satisfied in a partition, so negotiated.
		{"Negotiated", "SetSold", constraint.InterObject, func(*object.Entity) bool { return true }},
		// Intra-object: a reliable verdict in a partition, so its context is
		// released, satisfied or violated.
		{"Reliable", "SetSeats", constraint.IntraObject, func(e *object.Entity) bool { return e.GetInt("seats") >= 0 }},
	} {
		meta := constraint.Meta{
			Name: c.name, Type: constraint.HardInvariant, Scope: c.scope,
			Priority: constraint.Tradeable, MinDegree: constraint.Satisfied,
			NeedsContext: true, ContextClass: "Flight",
			Affected: []constraint.AffectedMethod{{Class: "Flight", Method: c.method, Prep: constraint.CalledObjectIsContext{}}},
		}
		valid := c.valid
		if err := env.repo.Register(meta, constraint.Func(func(ctx constraint.Context) (bool, error) {
			return valid(ctx.ContextObject()), nil
		})); err != nil {
			t.Fatal(err)
		}
	}
	env.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	chain := invocation.NewChain(func(inv *invocation.Invocation) (any, error) {
		e, err := env.reg.Get(inv.Target)
		if err != nil {
			return nil, err
		}
		inv.Tx.RecordUpdate(e)
		e.Set(map[string]string{"SetSold": "sold", "SetSeats": "seats"}[inv.Method], inv.Args[0])
		return nil, nil
	}, env.ccm.Interceptor())
	invoke := func(txn *tx.Tx, target object.ID, method string, v int64) error {
		_, err := chain.Dispatch(&invocation.Invocation{Node: "n1", Target: target, Class: "Flight", Method: method, Kind: object.Write, Args: []any{v}, Tx: txn})
		return err
	}

	gate := make(chan struct{})
	read := make(chan threat.NegotiationContext, 1)
	txn := env.txm.Begin()
	env.ccm.RegisterDeferredNegotiationHandler(txn, func(nc *threat.NegotiationContext) threat.Decision {
		<-gate
		seen := *nc
		seen.Affected = append([]threat.AffectedObject(nil), nc.Affected...)
		read <- seen
		return threat.Accept
	})
	if err := invoke(txn, "f1", "SetSold", 1); err != nil {
		t.Fatalf("the negotiated write did not continue: %v", err)
	}
	if err := invoke(txn, "f1", "SetSeats", -1); !IsViolation(err) {
		t.Fatalf("the violating write: err = %v, want a violation", err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Validations of another object, each on a released context.
	before := counter(t, env.obs, "core.validations")
	for i := int64(0); i < 64; i++ {
		later := env.txm.Begin()
		if err := invoke(later, "f2", "SetSeats", i); err != nil {
			t.Fatal(err)
		}
		if err := later.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := counter(t, env.obs, "core.validations") - before; n != 64 {
		t.Fatalf("%d later validations, want 64", n)
	}

	close(gate)
	nc := <-read
	if nc.Constraint.Name != "Negotiated" || nc.ContextID != "f1" || len(nc.Affected) != 1 {
		t.Fatalf("the handler read %s on %q with %d affected objects, want Negotiated on f1 with 1", nc.Constraint.Name, nc.ContextID, len(nc.Affected))
	}
	if a := nc.Affected[0]; a.ID != "f1" || a.Class != "Flight" || !a.Staleness.PossiblyStale {
		t.Fatalf("the handler read affected object %+v, want f1 of Flight, possibly stale", a)
	}
}
