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
