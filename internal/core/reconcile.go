package core

import (
	"context"
	"fmt"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
)

// ReconciliationHandler is the application-provided constraint
// reconciliation callback (Figure 4.6). It is invoked for every violated
// constraint found during threat re-evaluation. Returning true means the
// inconsistency was resolved immediately (the CCMgr revalidates); returning
// false defers the clean-up to the application (§4.4).
type ReconciliationHandler func(th threat.Threat, meta constraint.Meta) bool

// ConflictNotifier is invoked when a satisfied constraint had an underlying
// write-write replica conflict and its threat carried the
// NotifyOnReplicaConflict instruction (§3.3).
type ConflictNotifier func(th threat.Threat, conflicted []object.ID)

// SetReconciliationHandler installs the constraint reconciliation callback.
func (m *Manager) SetReconciliationHandler(h ReconciliationHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reconciliationHandler = h
}

// SetDisableViolatedConstraints selects the §3.3 alternative to resolving
// violations: "the system could deactivate violated constraints in order to
// reach the healthy state, thereby relaxing consistency". When enabled,
// reconciliation disables a violated constraint in the repository and drops
// its threats instead of invoking the reconciliation handler.
func (m *Manager) SetDisableViolatedConstraints(enabled bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.disableViolated = enabled
}

// SetConflictNotifier installs the replica-conflict notification callback.
func (m *Manager) SetConflictNotifier(h ConflictNotifier) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.conflictNotifier = h
}

// NoteReplicaConflicts records the objects whose replicas conflicted during
// the preceding replica reconciliation, so the constraint reconciliation
// can honour NotifyOnReplicaConflict instructions.
func (m *Manager) NoteReplicaConflicts(ids []object.ID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		m.replicaConflicts[id] = struct{}{}
	}
}

// SyncThreats exchanges threat stores with the given peers in one round:
// missed updates include the threats recorded during the degraded period
// (§5.2). The request carries this node's store; each peer merges it and
// replies with its store as it was before, which merges here in peer order.
// The reconciliation orchestrator calls this as part of the replica phase,
// which is why that phase scales with the number of stored threat records
// (Figure 5.6). An unreachable peer catches up at the next pass.
func (m *Manager) SyncThreats(ctx context.Context, peers []transport.NodeID) error {
	if m.comm == nil {
		return nil
	}
	for _, res := range m.comm.Multicast(ctx, m.self, peers, msgThreatSync, m.threats.All()) {
		if res.Err != nil {
			continue
		}
		remote, ok := res.Response.([]threat.Threat)
		if !ok {
			return fmt.Errorf("core: bad threat sync response %T from %s", res.Response, res.Node)
		}
		if err := m.mergeThreats(remote); err != nil {
			return err
		}
	}
	return nil
}

// ThreatReport summarises one constraint reconciliation pass (§5.2).
type ThreatReport struct {
	Reevaluated int // distinct threat identities processed
	Removed     int // threats whose constraint turned out satisfied
	Violations  int // constraints actually violated
	RolledBack  int // violations repaired by history rollback
	Resolved    int // violations resolved immediately by the handler
	Deferred    int // violations deferred to the application
	Postponed   int // threats still threatened (partition persists)
	Notified    int // replica-conflict notifications delivered
	Disabled    int // violated constraints deactivated (§3.3 alternative)
}

// maxResolveRetries bounds the revalidate/handler loop for handlers that
// claim immediate resolution (§4.4: "otherwise, it will contact the
// reconciliation handler again").
const maxResolveRetries = 3

// ReconcileThreats re-evaluates all accepted consistency threats (§3.3,
// §4.4). It must run after replica reconciliation has re-established replica
// consistency. Identical threats are re-evaluated once per identity. An
// identity that is done with is removed locally at once; the peers are told of
// all of them together (announceRemoved) when the pass returns, and before
// each hand-over to application code, which may take an operator's time.
func (m *Manager) ReconcileThreats(callCtx context.Context) (ThreatReport, error) {
	if callCtx == nil {
		callCtx = context.Background()
	}
	m.reconciling.Store(true)
	if m.obs.Tracing() {
		m.obs.Emit(obs.EventModeTransition, "-> reconciling")
	}
	defer func() {
		m.reconciling.Store(false)
		if m.obs.Tracing() {
			m.obs.Emit(obs.EventModeTransition, fmt.Sprintf("reconciling -> %s", m.Mode()))
		}
	}()

	var report ThreatReport
	var removed []string // dropped locally, not yet announced
	defer m.announceRemoved(callCtx, &removed)
	for _, ident := range m.threats.Identities() {
		ths := m.threats.ByIdentity(ident)
		if len(ths) == 0 {
			continue
		}
		th := ths[0]
		report.Reevaluated++
		reg, err := m.repo.Get(th.Constraint)
		if err != nil {
			// The constraint was unregistered: its threats are moot.
			m.dropIdentity(&removed, ident)
			report.Removed++
			continue
		}

		degree, ctx, err := m.revalidate(callCtx, th, reg.Meta, reg.Impl.Validate)
		if err != nil {
			return report, err
		}
		switch {
		case degree == constraint.Satisfied:
			m.dropIdentity(&removed, ident)
			report.Removed++
			m.maybeNotifyConflict(callCtx, ths, ctx, &report, &removed)
		case degree.IsThreat():
			// Still threatened: some affected object remains unreachable or
			// stale; postpone until further partitions re-unify (§3.3).
			report.Postponed++
		default: // Violated
			report.Violations++
			m.resolveViolation(callCtx, ident, th, reg.Meta, reg.Impl.Validate, &report, &removed)
		}
	}
	return report, nil
}

// dropIdentity removes a threat identity locally and notes it for the pass's
// next announcement.
func (m *Manager) dropIdentity(removed *[]string, ident string) {
	m.threats.RemoveIdentity(ident)
	*removed = append(*removed, ident)
}

type validateFunc func(ctx constraint.Context) (bool, error)

// revalidate runs one constraint validation for reconciliation, returning
// the observed degree and the context (for affected-object inspection).
func (m *Manager) revalidate(callCtx context.Context, th threat.Threat, meta constraint.Meta, validate validateFunc) (constraint.Degree, *valContext, error) {
	ctx := m.newContext(callCtx, nil, nil, "", nil, nil)
	if meta.NeedsContext {
		if th.ContextID == "" {
			return constraint.Violated, nil, fmt.Errorf("core: threat on %s lacks context object", th.Constraint)
		}
		ctx.setContext(th.ContextID, true)
	}
	ok, verr := validate(ctx)
	return m.computeDegree(meta, ctx, ok, verr), ctx, nil
}

// maybeNotifyConflict delivers replica-conflict notifications for satisfied
// constraints whose threats requested them.
func (m *Manager) maybeNotifyConflict(callCtx context.Context, ths []threat.Threat, ctx *valContext, report *ThreatReport, removed *[]string) {
	m.mu.Lock()
	notifier := m.conflictNotifier
	var conflicted []object.ID
	if ctx != nil {
		for _, a := range ctx.accessed {
			if _, ok := m.replicaConflicts[a.ID]; ok {
				conflicted = append(conflicted, a.ID)
			}
		}
	}
	m.mu.Unlock()
	if len(conflicted) == 0 || notifier == nil {
		return
	}
	for _, th := range ths {
		if th.Instructions.NotifyOnReplicaConflict {
			m.announceRemoved(callCtx, removed)
			notifier(th, conflicted)
			report.Notified++
			return
		}
	}
}

// resolveViolation handles an actual constraint violation found during
// reconciliation: history rollback if permitted, otherwise the
// application's reconciliation handler with immediate or deferred semantics.
func (m *Manager) resolveViolation(callCtx context.Context, ident string, th threat.Threat, meta constraint.Meta, validate validateFunc, report *ThreatReport, removed *[]string) {
	if th.Instructions.AllowRollback && m.tryRollback(callCtx, th, meta, validate) {
		m.dropIdentity(removed, ident)
		report.RolledBack++
		return
	}
	m.mu.Lock()
	handler := m.reconciliationHandler
	disable := m.disableViolated
	m.mu.Unlock()
	if disable {
		// §3.3 alternative: relax consistency by deactivating the violated
		// constraint; its threats become moot.
		if err := m.repo.SetEnabled(meta.Name, false); err == nil {
			m.dropIdentity(removed, ident)
			report.Disabled++
			return
		}
	}
	if handler == nil {
		report.Deferred++
		return
	}
	for attempt := 0; attempt < maxResolveRetries; attempt++ {
		m.announceRemoved(callCtx, removed)
		solved := handler(th, meta)
		if !solved {
			// Deferred reconciliation: the application cleans up later; the
			// threat is removed once a business operation satisfies the
			// constraint again (§4.4).
			report.Deferred++
			return
		}
		degree, _, err := m.revalidate(callCtx, th, meta, validate)
		if err != nil {
			report.Deferred++
			return
		}
		if degree == constraint.Satisfied {
			m.dropIdentity(removed, ident)
			report.Resolved++
			return
		}
	}
	report.Deferred++
}

// tryRollback searches the context object's recorded degraded-mode history
// (newest first) for a state satisfying the constraint and installs it
// system-wide. This is the generic rollback of §3.3 with its availability
// cost: later updates do not become effective.
func (m *Manager) tryRollback(callCtx context.Context, th threat.Threat, meta constraint.Meta, validate validateFunc) bool {
	if m.repl == nil || !meta.NeedsContext || th.ContextID == "" {
		return false
	}
	history := m.repl.History(th.ContextID)
	if len(history) == 0 {
		return false
	}
	e, _, err := m.lookup(callCtx, th.ContextID)
	if err != nil {
		return false
	}
	current, currentVersion := e.Share()
	for i := len(history) - 1; i >= 0; i-- {
		entry := history[i]
		e.Restore(entry.State, entry.Version)
		ctx := m.newContext(callCtx, e, nil, "", nil, nil)
		ok, verr := validate(ctx)
		if verr == nil && ok && !ctx.unreachable {
			// Found a consistent historical state; propagate it.
			if err := m.repl.PropagateState(callCtx, th.ContextID); err != nil {
				e.Restore(current, currentVersion)
				return false
			}
			return true
		}
	}
	e.Restore(current, currentVersion)
	return false
}

// ClearReplicaConflicts resets the recorded conflicts after reconciliation.
func (m *Manager) ClearReplicaConflicts() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.replicaConflicts = make(map[object.ID]struct{})
}
