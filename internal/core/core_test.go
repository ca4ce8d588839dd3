package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/group"
	"dedisys/internal/invocation"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/persistence"
	"dedisys/internal/replication"
	"dedisys/internal/repository"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
	"dedisys/internal/tx"
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

// localEnv is a single-node CCMgr without network or replication, testing
// the pure constraint-consistency logic.
type localEnv struct {
	reg  *object.Registry
	repo *repository.Repository
	ths  *threat.Store
	txm  *tx.Manager
	ccm  *Manager
	obs  *obs.Observer // the CCMgr's
}

func newLocalEnv(t *testing.T) *localEnv {
	t.Helper()
	env := &localEnv{
		reg:  object.NewRegistry(),
		repo: repository.New(repository.WithCache()),
		txm:  tx.NewManager(),
		obs:  obs.New(),
	}
	env.ths = threat.NewStore(persistence.NewStore(), threat.IdenticalOnce)
	ccm, err := New(Config{
		Self:     "n1",
		Registry: env.reg,
		Repo:     env.repo,
		Threats:  env.ths,
		Obs:      env.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.ccm = ccm
	env.txm.RegisterResource(ccm)
	return env
}

func (e *localEnv) registerHard(t *testing.T, name string, impl constraint.Constraint) {
	t.Helper()
	meta := constraint.Meta{
		Name: name, Type: constraint.HardInvariant,
		Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
		NeedsContext: true, ContextClass: "Flight",
		Affected: []constraint.AffectedMethod{
			{Class: "Flight", Method: "SetSold", Prep: constraint.CalledObjectIsContext{}},
		},
	}
	if err := e.repo.Register(meta, impl); err != nil {
		t.Fatal(err)
	}
}

// invoke runs one write on target in its own transaction; SetSold sets
// "sold", any other method changes nothing.
func (e *localEnv) invoke(t *testing.T, target object.ID, method string, args ...any) error {
	t.Helper()
	class := "Flight"
	if ent, err := e.reg.Get(target); err == nil {
		class = ent.Class()
	}
	txn := e.txm.Begin()
	inv := &invocation.Invocation{
		Node: "n1", Target: target, Class: class, Method: method,
		Kind: object.Write, Args: args, Tx: txn,
	}
	chain := invocation.NewChain(func(inv *invocation.Invocation) (any, error) {
		ent, err := e.reg.Get(inv.Target)
		if err != nil {
			return nil, err
		}
		if inv.Method == "SetSold" {
			txn.RecordUpdate(ent)
			ent.Set("sold", inv.Args[0])
		}
		return nil, nil
	}, e.ccm.Interceptor())
	if _, err := chain.Dispatch(inv); err != nil {
		_ = txn.Rollback()
		return err
	}
	return txn.Commit()
}

func TestModeWithoutGMSIsHealthy(t *testing.T) {
	env := newLocalEnv(t)
	if env.ccm.Mode() != Healthy {
		t.Fatalf("mode = %v", env.ccm.Mode())
	}
}

func TestHardInvariantViolationLocal(t *testing.T) {
	env := newLocalEnv(t)
	env.registerHard(t, "C1", constraint.Func(func(ctx constraint.Context) (bool, error) {
		return ctx.ContextObject().GetInt("sold") <= 10, nil
	}))
	if err := env.reg.Add(object.New("Flight", "f1", object.State{"sold": int64(5)})); err != nil {
		t.Fatal(err)
	}
	if err := env.invoke(t, "f1", "SetSold", int64(9)); err != nil {
		t.Fatal(err)
	}
	err := env.invoke(t, "f1", "SetSold", int64(11))
	var verr *ViolationError
	if !errors.As(err, &verr) || verr.Constraint != "C1" {
		t.Fatalf("err = %v", err)
	}
	if !IsViolation(err) || errors.Is(err, ErrThreatRejected) {
		t.Fatal("error classification wrong")
	}
	e, _ := env.reg.Get("f1")
	if e.GetInt("sold") != 9 {
		t.Fatalf("sold = %d", e.GetInt("sold"))
	}
}

func TestUncheckableValidationErrorLocal(t *testing.T) {
	env := newLocalEnv(t)
	env.registerHard(t, "C1", constraint.Func(func(ctx constraint.Context) (bool, error) {
		return false, fmt.Errorf("%w: object gone", constraint.ErrUncheckable)
	}))
	if err := env.reg.Add(object.New("Flight", "f1", object.State{"sold": int64(0)})); err != nil {
		t.Fatal(err)
	}
	// Uncheckable is a threat; min degree Uncheckable accepts it.
	if err := env.invoke(t, "f1", "SetSold", int64(1)); err != nil {
		t.Fatal(err)
	}
	ths := env.ths.All()
	if len(ths) != 1 || ths[0].Degree != constraint.Uncheckable {
		t.Fatalf("threats = %+v", ths)
	}
}

func TestInvocationWithoutTransaction(t *testing.T) {
	env := newLocalEnv(t)
	env.registerHard(t, "C1", constraint.Func(func(ctx constraint.Context) (bool, error) { return true, nil }))
	if err := env.reg.Add(object.New("Flight", "f1", nil)); err != nil {
		t.Fatal(err)
	}
	inv := &invocation.Invocation{Node: "n1", Target: "f1", Class: "Flight", Method: "SetSold", Args: []any{int64(1)}}
	chain := invocation.NewChain(func(inv *invocation.Invocation) (any, error) { return nil, nil }, env.ccm.Interceptor())
	if _, err := chain.Dispatch(inv); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueryBasedConstraint(t *testing.T) {
	env := newLocalEnv(t)
	// A query-based invariant: at most 2 flights may exist in total.
	meta := constraint.Meta{
		Name: "MaxFlights", Type: constraint.HardInvariant,
		Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
		NeedsContext: false,
		Affected: []constraint.AffectedMethod{
			{Class: "Flight", Method: "SetSold", Prep: constraint.CalledObjectIsContext{}},
		},
	}
	err := env.repo.Register(meta, constraint.Func(func(ctx constraint.Context) (bool, error) {
		flights, err := ctx.Query("Flight")
		if err != nil {
			return false, err
		}
		return len(flights) <= 2, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []object.ID{"f1", "f2"} {
		if err := env.reg.Add(object.New("Flight", id, object.State{"sold": int64(0)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.invoke(t, "f1", "SetSold", int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := env.reg.Add(object.New("Flight", "f3", nil)); err != nil {
		t.Fatal(err)
	}
	if err := env.invoke(t, "f1", "SetSold", int64(2)); !IsViolation(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsAndReset(t *testing.T) {
	env := newLocalEnv(t)
	env.registerHard(t, "C1", constraint.Func(func(ctx constraint.Context) (bool, error) { return true, nil }))
	if err := env.reg.Add(object.New("Flight", "f1", object.State{"sold": int64(0)})); err != nil {
		t.Fatal(err)
	}
	if err := env.invoke(t, "f1", "SetSold", int64(1)); err != nil {
		t.Fatal(err)
	}
	validations := counter(t, env.obs, "core.validations")
	if validations != 1 {
		t.Fatalf("validations = %d, want 1", validations)
	}
	if err := env.invoke(t, "f1", "SetSold", int64(2)); err != nil {
		t.Fatal(err)
	}
	if after := counter(t, env.obs, "core.validations"); after-validations != 1 {
		t.Fatalf("validations before = %d, after one more invocation = %d", validations, after)
	}
}

func TestModeStrings(t *testing.T) {
	if Healthy.String() != "healthy" || Degraded.String() != "degraded" || Reconciling.String() != "reconciling" {
		t.Fatal("mode strings wrong")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

// replEnv is a two-node environment with replication for staleness paths.
type replEnv struct {
	net  *transport.Network
	gms  *group.Membership
	reg  *object.Registry
	repo *repository.Repository
	ths  *threat.Store
	ths2 *threat.Store // n2's
	txm  *tx.Manager
	repl *replication.Manager
	ccm  *Manager
	obs  *obs.Observer // n1's CCMgr's
}

func newReplEnv(t *testing.T) *replEnv {
	t.Helper()
	net := transport.NewNetwork()
	for _, id := range []transport.NodeID{"n1", "n2"} {
		if err := net.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	gms := group.NewMembership(net)
	env := &replEnv{
		net:  net,
		gms:  gms,
		reg:  object.NewRegistry(),
		repo: repository.New(repository.WithCache()),
		txm:  tx.NewManager(),
		obs:  obs.New(),
	}
	store := persistence.NewStore()
	env.ths = threat.NewStore(store, threat.IdenticalOnce)
	repl, err := replication.NewManager(replication.Config{
		Self: "n1", Net: net, GMS: gms, Registry: env.reg, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.repl = repl
	ccm, err := New(Config{
		Self: "n1", Net: net, GMS: gms, Registry: env.reg,
		Repl: repl, Repo: env.repo, Threats: env.ths,
		Obs: env.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.ccm = ccm
	env.txm.RegisterResource(repl)
	env.txm.RegisterResource(ccm)

	// Register remote handlers for n2 so multicasts succeed; the threats of
	// n1's commits reach n2's store inside the repl.batch.
	reg2 := object.NewRegistry()
	env.ths2 = threat.NewStore(persistence.NewStore(), threat.IdenticalOnce)
	if _, err := replication.NewManager(replication.Config{
		Self: "n2", Net: net, GMS: gms, Registry: reg2, Store: persistence.NewStore(), Threats: env.ths2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{
		Self: "n2", Net: net, GMS: gms, Registry: reg2,
		Repo: repository.New(), Threats: env.ths2,
	}); err != nil {
		t.Fatal(err)
	}
	return env
}

func (e *replEnv) createFlight(t *testing.T, id object.ID, sold, seats int64) {
	t.Helper()
	txn := e.txm.Begin()
	ent := object.New("Flight", id, object.State{"sold": sold, "seats": seats})
	if err := e.repl.Create(txn, ent, replication.Info{Home: "n1", Replicas: []transport.NodeID{"n1", "n2"}}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestIntraObjectScopeKeepsReliableResult(t *testing.T) {
	env := newReplEnv(t)
	env.createFlight(t, "f1", 0, 10)
	meta := constraint.Meta{
		Name: "IntraC", Type: constraint.HardInvariant,
		Priority: constraint.Tradeable, MinDegree: constraint.Satisfied,
		Scope:        constraint.IntraObject,
		NeedsContext: true, ContextClass: "Flight",
		Affected: []constraint.AffectedMethod{
			{Class: "Flight", Method: "SetSold", Prep: constraint.CalledObjectIsContext{}},
		},
	}
	if err := env.repo.Register(meta, constraint.Func(func(ctx constraint.Context) (bool, error) {
		return ctx.ContextObject().GetInt("sold") <= ctx.ContextObject().GetInt("seats"), nil
	})); err != nil {
		t.Fatal(err)
	}

	env.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})

	// Degraded mode, stale object — but an intra-object constraint keeps
	// its reliable Satisfied result (min degree Satisfied would reject a
	// possibly-satisfied threat).
	txn := env.txm.Begin()
	ent, _ := env.reg.Get("f1")
	inv := &invocation.Invocation{Node: "n1", Target: "f1", Class: "Flight", Method: "SetSold", Kind: object.Write, Args: []any{int64(5)}, Tx: txn}
	chain := invocation.NewChain(func(inv *invocation.Invocation) (any, error) {
		txn.RecordUpdate(ent)
		ent.Set("sold", inv.Args[0])
		return nil, nil
	}, env.ccm.Interceptor())
	if _, err := chain.Dispatch(inv); err != nil {
		t.Fatalf("intra-object constraint raised a threat: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if saves, detected := counter(t, env.obs, "core.intra_object_saves"), counter(t, env.obs, "core.threats.detected"); saves != 1 || detected != 0 {
		t.Fatalf("intra-object saves = %d, threats detected = %d; want 1, 0", saves, detected)
	}
	// And a violated intra-object constraint aborts reliably even degraded.
	txn2 := env.txm.Begin()
	inv2 := &invocation.Invocation{Node: "n1", Target: "f1", Class: "Flight", Method: "SetSold", Kind: object.Write, Args: []any{int64(50)}, Tx: txn2}
	chain2 := invocation.NewChain(func(inv *invocation.Invocation) (any, error) {
		txn2.RecordUpdate(ent)
		ent.Set("sold", inv.Args[0])
		return nil, nil
	}, env.ccm.Interceptor())
	if _, err := chain2.Dispatch(inv2); !IsViolation(err) {
		t.Fatalf("err = %v", err)
	}
	_ = txn2.Rollback()
}

func TestPartitionWeightInContext(t *testing.T) {
	env := newReplEnv(t)
	env.createFlight(t, "f1", 0, 10)
	var seenWeight float64
	meta := constraint.Meta{
		Name: "WeightC", Type: constraint.HardInvariant,
		Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
		NeedsContext: true, ContextClass: "Flight",
		Affected: []constraint.AffectedMethod{
			{Class: "Flight", Method: "SetSold", Prep: constraint.CalledObjectIsContext{}},
		},
	}
	if err := env.repo.Register(meta, constraint.Func(func(ctx constraint.Context) (bool, error) {
		seenWeight = ctx.PartitionWeight()
		return true, nil
	})); err != nil {
		t.Fatal(err)
	}
	env.net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	txn := env.txm.Begin()
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
	_ = txn.Commit()
	if seenWeight != 0.5 {
		t.Fatalf("partition weight = %f", seenWeight)
	}
}

// TestThreatKindsRejectBadPayloads: ccm.threat.sync accepts a threat list
// and nothing else; a sync merges the request and answers with the store as
// it was before.
func TestThreatKindsRejectBadPayloads(t *testing.T) {
	env := newReplEnv(t)
	ctx := context.Background()
	th := threat.Threat{Constraint: "C1", ContextID: "f1", Degree: constraint.PossiblySatisfied}
	for _, bad := range []any{"not a threat", th, threat.Delta{Added: []threat.Threat{th}}, []string{th.Identity()}, nil} {
		if _, err := env.net.Send(ctx, "n2", "n1", "ccm.threat.sync", bad); err == nil {
			t.Fatalf("ccm.threat.sync accepted a %T", bad)
		}
	}
	if env.ths.Len() != 0 {
		t.Fatalf("a rejected payload stored %v", env.ths.All())
	}
	if _, _, err := env.ths.Add(th); err != nil {
		t.Fatal(err)
	}
	other := threat.Threat{Constraint: "C1", ContextID: "f2", Degree: constraint.Uncheckable, Seq: 9}
	reply, err := env.net.Send(ctx, "n2", "n1", "ccm.threat.sync", []threat.Threat{other})
	if err != nil {
		t.Fatal(err)
	}
	if before, ok := reply.([]threat.Threat); !ok || len(before) != 1 || before[0].Identity() != th.Identity() {
		t.Fatalf("sync reply = %#v, want the store before the merge: %s alone", reply, th.Identity())
	}
	if env.ths.Len() != 2 {
		t.Fatalf("threats after the sync = %d, want 2", env.ths.Len())
	}
}

// TestAnnouncedChangeRemovesThenAdds: a threat change announced with no ops
// reaches the view member as one repl.batch, which folds identical additions
// and applies a change's removals before its additions. repl.batch takes no
// bare change, threat list or identity list.
func TestAnnouncedChangeRemovesThenAdds(t *testing.T) {
	env := newReplEnv(t)
	ctx := context.Background()
	th := threat.Threat{Constraint: "C1", ContextID: "f1", Degree: constraint.PossiblySatisfied}
	other := threat.Threat{Constraint: "C1", ContextID: "f2", Degree: constraint.Uncheckable, Seq: 9}
	for _, bad := range []any{"not a threat", threat.Delta{Added: []threat.Threat{th}}, &threat.Delta{}, []threat.Threat{th}, []string{th.Identity()}, nil} {
		if _, err := env.net.Send(ctx, "n1", "n2", "repl.batch", bad); err == nil {
			t.Fatalf("repl.batch accepted a %T", bad)
		}
	}
	messages := func() int64 { return env.net.Observer().Snapshot().Counters["transport.messages"] }
	before := messages()
	env.repl.AnnounceThreats(ctx, threat.Delta{Added: []threat.Threat{th, other, th}})
	if env.ths2.Len() != 2 {
		t.Fatalf("threats = %d, want the two identities", env.ths2.Len())
	}
	env.repl.AnnounceThreats(ctx, threat.Delta{Removed: []string{th.Identity(), "unknown", other.Identity()}, Added: []threat.Threat{th}})
	if got := env.ths2.Identities(); !slices.Equal(got, []string{th.Identity()}) {
		t.Fatalf("identities after the change = %v, want only the re-added %s", got, th.Identity())
	}
	if sent := messages() - before; sent != 2 {
		t.Fatalf("two changes cost %d messages, want one each", sent)
	}
}

func TestReconcileThreatsDropsUnknownConstraint(t *testing.T) {
	env := newLocalEnv(t)
	_, _, err := env.ths.Add(threat.Threat{Constraint: "Ghost", ContextID: "f1", Degree: constraint.Uncheckable})
	if err != nil {
		t.Fatal(err)
	}
	report, err := env.ccm.ReconcileThreats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Removed != 1 || env.ths.Len() != 0 {
		t.Fatalf("report = %+v, len = %d", report, env.ths.Len())
	}
}

func TestErrorTypes(t *testing.T) {
	v := &ViolationError{Constraint: "C", Method: "M"}
	if v.Error() == "" || !errors.Is(v, ErrConstraintViolated) {
		t.Fatal("ViolationError wrong")
	}
	r := &ThreatRejectedError{Constraint: "C", Degree: constraint.Uncheckable}
	if r.Error() == "" || !errors.Is(r, ErrThreatRejected) {
		t.Fatal("ThreatRejectedError wrong")
	}
}
