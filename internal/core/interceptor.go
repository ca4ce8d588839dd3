package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"dedisys/internal/constraint"
	"dedisys/internal/invocation"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/repository"
	"dedisys/internal/threat"
	"dedisys/internal/tx"
)

// invocation payload key for postcondition contexts kept across the call.
const keyPostContexts = "ccm.post-contexts"

// Interceptor returns the CCMgr's invocation interceptor (§4.2.4): it checks
// preconditions before the call, runs postcondition @pre hooks, and checks
// postconditions and hard invariants after the call. Soft and asynchronous
// invariants are deferred to the transaction's prepare phase.
func (m *Manager) Interceptor() invocation.Interceptor {
	return invocation.Func{ID: "constraint-consistency", Fn: func(inv *invocation.Invocation, next invocation.Next) (any, error) {
		if err := m.beforeInvocation(inv); err != nil {
			return nil, err
		}
		res, err := next(inv)
		if err != nil {
			return nil, err
		}
		inv.Result = res
		if err := m.afterInvocation(inv); err != nil {
			return nil, err
		}
		return res, nil
	}}
}

func (m *Manager) beforeInvocation(inv *invocation.Invocation) error {
	if inv.Tx == nil {
		return ErrNoTransaction
	}
	called, err := m.registry.Get(inv.Target)
	if err != nil {
		return fmt.Errorf("core: before %s: %w", inv, err)
	}

	// Preconditions are bound to and checked before the method (§1.6).
	for _, reg := range m.repo.LookupAffected(inv.Class, inv.Method, constraint.Pre) {
		ctx := m.newContext(inv.Context(), nil, called, inv.Method, inv.Args, nil)
		if err := m.validateOne(inv.Tx, reg, ctx, inv.Method); err != nil {
			return err
		}
	}

	// Postconditions capture state before the invocation (Figure 4.3's
	// beforeMethodInvocation, the OCL @pre operator).
	posts := m.repo.LookupAffected(inv.Class, inv.Method, constraint.Post)
	if len(posts) > 0 {
		ctxs := make(map[string]*valContext, len(posts))
		for _, reg := range posts {
			ctx := m.newContext(inv.Context(), nil, called, inv.Method, inv.Args, &inv.Result)
			if bv, ok := reg.Impl.(constraint.BeforeValidator); ok {
				bv.BeforeInvocation(ctx)
			}
			ctxs[reg.Meta.Name] = ctx
		}
		inv.Put(keyPostContexts, ctxs)
	}
	return nil
}

func (m *Manager) afterInvocation(inv *invocation.Invocation) error {
	if inv.Tx == nil {
		return ErrNoTransaction
	}
	called, err := m.registry.Get(inv.Target)
	if err != nil {
		return fmt.Errorf("core: after %s: %w", inv, err)
	}

	// Postconditions, re-using the contexts created before the call.
	ctxs, _ := inv.Value(keyPostContexts).(map[string]*valContext)
	for _, reg := range m.repo.LookupAffected(inv.Class, inv.Method, constraint.Post) {
		ctx := ctxs[reg.Meta.Name]
		if ctx == nil {
			ctx = m.newContext(inv.Context(), nil, called, inv.Method, inv.Args, &inv.Result)
		}
		if err := m.validateOne(inv.Tx, reg, ctx, inv.Method); err != nil {
			return err
		}
	}

	// Hard invariants are checked at the end of the operation (§1.6).
	for _, reg := range m.repo.LookupAffected(inv.Class, inv.Method, constraint.HardInvariant) {
		ctx, err := m.invariantContext(inv.Context(), reg, called, inv.Method, inv.Args)
		if err != nil {
			return err
		}
		if err := m.validateOne(inv.Tx, reg, ctx, inv.Method); err != nil {
			return err
		}
	}

	// Soft and asynchronous invariants are deferred to commit (§1.6, §5.5.3).
	for _, ctype := range [...]constraint.Type{constraint.SoftInvariant, constraint.AsyncInvariant} {
		for _, reg := range m.repo.LookupAffected(inv.Class, inv.Method, ctype) {
			if err := m.deferInvariant(inv.Tx, reg, called, inv.Method); err != nil {
				return err
			}
		}
	}
	return nil
}

// invariantContext builds the validation context of a triggered invariant
// and names its context object through the constraint's preparation class.
func (m *Manager) invariantContext(callCtx context.Context, reg *repository.Registered, called *object.Entity, method string, args []any) (*valContext, error) {
	ctx := m.newContext(callCtx, nil, called, method, args, nil)
	if reg.Meta.NeedsContext {
		id, named, err := contextOf(reg, called, method)
		if err != nil {
			return nil, err
		}
		ctx.setContext(id, named)
	}
	return ctx, nil
}

// contextOf names the context object of an invariant that method on called
// triggered. A preparer that names no object (an empty reference) makes the
// validation uncheckable under the called object: named is false.
func contextOf(reg *repository.Registered, called *object.Entity, method string) (id object.ID, named bool, err error) {
	prep := prepFor(reg, called.Class(), method)
	if prep == nil {
		return "", false, fmt.Errorf("core: constraint %s: no context preparation for %s.%s", reg.Meta.Name, called.Class(), method)
	}
	if id, err := prep.ContextID(called); err == nil {
		return id, true, nil
	}
	return called.ID(), false, nil
}

func prepFor(reg *repository.Registered, class, method string) constraint.ContextPreparer {
	for _, am := range reg.Meta.Affected {
		if am.Class == class && am.Method == method {
			return am.Prep
		}
	}
	// Fallback: the called object is the context object.
	if reg.Meta.ContextClass == class {
		return constraint.CalledObjectIsContext{}
	}
	return nil
}

// pendingInvariant is a soft/async invariant validation deferred to commit:
// the context object is named now and resolved then.
type pendingInvariant struct {
	name      string
	contextID object.ID
	named     bool // see contextOf
}

func (m *Manager) deferInvariant(t *tx.Tx, reg *repository.Registered, called *object.Entity, method string) error {
	p := pendingInvariant{name: reg.Meta.Name}
	if reg.Meta.NeedsContext {
		var err error
		if p.contextID, p.named, err = contextOf(reg, called, method); err != nil {
			return err
		}
	}
	pending, _ := t.Value(keyPending).([]pendingInvariant)
	for _, q := range pending {
		if q == p {
			return nil // deduplicate per transaction
		}
	}
	t.Put(keyPending, append(pending, p))
	return nil
}

// Prepare implements tx.Resource: soft constraints are checked at the end of
// the transaction (§1.6); asynchronous constraints short-circuit to stored
// threats in degraded mode (§5.5.3).
func (m *Manager) Prepare(t *tx.Tx) error {
	pending, _ := t.Value(keyPending).([]pendingInvariant)
	degraded := m.Mode() != Healthy
	for _, p := range pending {
		reg, err := m.repo.Get(p.name)
		if err != nil {
			return fmt.Errorf("core: prepare: %w", err)
		}
		if reg.Meta.Type == constraint.AsyncInvariant && degraded {
			// Skip validation and negotiation entirely: store the threat for
			// reconciliation-time evaluation.
			m.asyncShortcuts.Add(1)
			th := threat.Threat{
				Constraint:   reg.Meta.Name,
				ContextID:    p.contextID,
				Degree:       constraint.Uncheckable,
				Instructions: reg.Meta.Instructions,
				TxID:         t.ID(),
			}
			if err := m.storeThreat(t, th); err != nil {
				return err
			}
			continue
		}
		ctx := m.newContext(t.Context(), nil, nil, "", nil, nil)
		if reg.Meta.NeedsContext {
			ctx.setContext(p.contextID, p.named)
		}
		if err := m.validateOne(t, reg, ctx, "commit"); err != nil {
			return err
		}
	}
	// Block before commit until all parallel negotiation decisions arrived
	// (§5.4 deferred negotiation).
	return m.awaitDeferredNegotiations(t)
}

// Commit implements tx.Resource; replication's commit ships the
// transaction's threat change (threat.KeyDelta) with its batches (§5.1).
func (m *Manager) Commit(t *tx.Tx) error { return nil }

// validateOne triggers one constraint validation and processes the result
// per Figure 4.4: reliable violation aborts, threats are negotiated,
// accepted threats are remembered. It takes ctx over: the caller reads it no
// more, and a reliable verdict puts it back on the free list.
func (m *Manager) validateOne(t *tx.Tx, reg *repository.Registered, ctx *valContext, method string) error {
	m.validations.Add(1)
	ok, verr := reg.Impl.Validate(ctx)
	degree := m.computeDegree(reg.Meta, ctx, ok, verr)

	switch degree {
	case constraint.Satisfied:
		// A business operation that reliably satisfies the constraint also
		// cleans up its stored threats: the CCMgr detects the clean-up
		// "through the fact that the corresponding constraint is satisfied
		// by a business operation" and removes the threat from persistent
		// storage (§4.4 deferred reconciliation).
		m.clearSatisfiedThreats(t, reg.Meta, ctx)
		m.release(ctx)
		return nil
	case constraint.Violated:
		m.release(ctx)
		m.violations.Add(1)
		if m.obs.Tracing() {
			m.obs.Emit(obs.EventConstraintViolated, fmt.Sprintf("%s by %s (tx %d)", reg.Meta.Name, method, t.ID()))
		}
		err := &ViolationError{Constraint: reg.Meta.Name, Method: method}
		t.SetRollbackOnly(err)
		return err
	default:
		return m.negotiateThreat(t, reg, ctx, degree)
	}
}

// computeDegree turns the raw validation outcome into a satisfaction degree
// (§3.1): validation errors and unreachable objects are uncheckable; results
// based on possibly stale objects are downgraded to "possibly"; intra-object
// constraints keep their reliable result.
func (m *Manager) computeDegree(meta constraint.Meta, ctx *valContext, ok bool, verr error) constraint.Degree {
	if verr != nil || ctx.unreachable {
		return constraint.Uncheckable
	}
	stale := ctx.anyStale()
	if !stale {
		if ok {
			return constraint.Satisfied
		}
		return constraint.Violated
	}
	if meta.Scope == constraint.IntraObject {
		// Intra-object constraints are not violated retrospectively by the
		// replica reconciliation process (§3.1), so their validation result
		// remains reliable.
		m.intraObjectSaves.Add(1)
		if ok {
			return constraint.Satisfied
		}
		return constraint.Violated
	}
	if ok {
		return constraint.PossiblySatisfied
	}
	return constraint.PossiblyViolated
}

// clearSatisfiedThreats removes stored threats of a constraint once a
// business operation satisfies it reliably. Removal is undone if the
// transaction rolls back (the satisfying operation never became effective);
// the peers learn of it when the transaction commits.
func (m *Manager) clearSatisfiedThreats(t *tx.Tx, meta constraint.Meta, ctx *valContext) {
	if m.threats.Len() == 0 {
		return // every healthy write: no identity to build, nothing to look up
	}
	th := threat.Threat{Constraint: meta.Name}
	if meta.NeedsContext {
		if ctx.contextObj == nil {
			return
		}
		th.ContextID = ctx.contextObj.ID()
	}
	ident := th.Identity()
	removed := m.threats.RemoveIdentity(ident)
	if len(removed) == 0 {
		return
	}
	if d := m.delta(t); d != nil {
		d.Removed = append(d.Removed, ident)
	}
	t.RecordUndo(func() {
		for _, old := range removed {
			old.Seq = 0
			_, _, _ = m.threats.Add(old)
		}
	})
}

// negotiateThreat runs the negotiation of Figure 3.3 and stores accepted
// threats. The accessed list is read in place: without a handler the
// negotiation context stays on the stack, and the threat store copies the
// list only into a new record, so a folded repeat costs no allocation here.
// What a handler is given it may keep, so it gets a copy.
func (m *Manager) negotiateThreat(t *tx.Tx, reg *repository.Registered, ctx *valContext, degree constraint.Degree) error {
	m.threatsDetected.Add(1)
	if m.obs.Tracing() {
		m.obs.Emit(obs.EventThreatDetected, fmt.Sprintf("%s (%s)", reg.Meta.Name, degree))
	}
	nc := threat.NegotiationContext{
		Constraint:      reg.Meta,
		Degree:          degree,
		ContextID:       ctx.contextID,
		Affected:        ctx.accessed,
		PartitionWeight: m.partitionWeight(),
	}
	if nc.ContextID == "" && ctx.called != nil {
		nc.ContextID = ctx.called.ID()
	}
	if reg.Meta.CaptureAffectedState {
		nc.Affected = slices.Clone(nc.Affected)
		for i := range nc.Affected {
			if e, err := m.registry.Get(nc.Affected[i].ID); err == nil {
				nc.Affected[i].State = e.Snapshot()
			}
		}
	}
	th := threat.Threat{
		Constraint:   reg.Meta.Name,
		ContextID:    nc.ContextID,
		Degree:       degree,
		Affected:     nc.Affected,
		Instructions: reg.Meta.Instructions,
		TxID:         t.ID(),
	}
	if !reg.Meta.NeedsContext {
		th.ContextID = ""
	}

	// No application-wide default minimum degree (0) backs the declarative
	// one: the repository registers no constraint without it.
	var decision threat.Decision
	if dynamic, _ := t.Value(keyNegHandler).(threat.Handler); dynamic == nil {
		decision = threat.NegotiateStatic(&nc, 0)
	} else {
		hc := nc
		hc.Affected = slices.Clone(nc.Affected)
		th.Affected = hc.Affected
		// Deferred mode (§5.4): run the decision in parallel and continue the
		// operation under the assumption that the threat will be accepted.
		if m.deferNegotiation(t, reg, &hc, th) {
			return nil
		}
		decision = threat.Negotiate(&hc, dynamic, 0)
		th.AppData = hc.AppData
	}
	if decision != threat.Accept {
		m.threatsRejected.Add(1)
		if m.obs.Tracing() {
			m.obs.Emit(obs.EventThreatRejected, fmt.Sprintf("%s (%s)", reg.Meta.Name, degree))
		}
		err := &ThreatRejectedError{Constraint: reg.Meta.Name, Degree: degree}
		t.SetRollbackOnly(err)
		return err
	}
	m.threatsAccepted.Add(1)
	if m.obs.Tracing() {
		m.obs.Emit(obs.EventThreatAccepted, fmt.Sprintf("%s (%s)", reg.Meta.Name, degree))
	}

	// Pre- and postconditions cannot be re-evaluated during reconciliation
	// (§3); their accepted threats are not stored, their trade has to be
	// compensated by invariants.
	if reg.Meta.Type == constraint.Pre || reg.Meta.Type == constraint.Post {
		return nil
	}
	return m.storeThreat(t, th)
}

// storeThreat persists the threat locally, schedules its replication at
// commit, and undoes the local record if the transaction rolls back.
func (m *Manager) storeThreat(t *tx.Tx, th threat.Threat) error {
	stored, isNew, err := m.threats.Add(th)
	if err != nil {
		return fmt.Errorf("core: store threat: %w", err)
	}
	if !isNew {
		// Folded into an identical threat: already persisted and already
		// replicated — only the duplicate-detection read was paid (§5.5.1).
		return nil
	}
	seq := stored.Seq
	t.RecordUndo(func() { m.threats.Remove(seq) })
	if d := m.delta(t); d != nil {
		d.Added = append(d.Added, stored)
	}
	return nil
}

// delta returns the threat change t's commit ships, recorded under
// threat.KeyDelta; nil without replication, which ships none.
func (m *Manager) delta(t *tx.Tx) *threat.Delta {
	if m.repl == nil {
		return nil
	}
	d, _ := t.Value(threat.KeyDelta).(*threat.Delta)
	if d == nil {
		d = new(threat.Delta)
		t.Put(threat.KeyDelta, d)
	}
	return d
}

// ValidateNew validates the hard invariants of a newly created entity
// (invariants constrain public constructors, §2.3.1).
func (m *Manager) ValidateNew(t *tx.Tx, e *object.Entity) error {
	for _, reg := range m.repo.InvariantsOfClass(e.Class()) {
		if reg.Meta.Type != constraint.HardInvariant || reg.Meta.SkipOnCreate {
			continue
		}
		ctx := m.newContext(t.Context(), e, e, "<init>", nil, nil)
		if err := m.validateOne(t, reg, ctx, "<init>"); err != nil {
			return err
		}
	}
	return nil
}

// IsViolation reports whether the error is a constraint violation.
func IsViolation(err error) bool { return errors.Is(err, ErrConstraintViolated) }
