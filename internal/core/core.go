// Package core implements the dissertation's primary contribution: the
// constraint consistency manager (CCMgr, §4.2.3). The CCMgr is notified by
// the invocation service before and after method invocations, looks up
// affected constraints in the runtime repository, triggers validation while
// gathering the accessed objects, consults the replication manager about
// staleness, detects and negotiates consistency threats (Figure 4.4),
// participates in the two-phase commit for soft constraints, and
// re-evaluates accepted threats during the reconciliation phase (§4.4).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dedisys/internal/constraint"
	"dedisys/internal/group"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/replication"
	"dedisys/internal/repository"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
	"dedisys/internal/tx"
)

// msgThreatSync is the one message kind between constraint consistency
// managers: a reconciliation's store exchange ([]threat.Threat each way). A
// threat change travels with replication's batches (Commit, announceRemoved).
const msgThreatSync = "ccm.threat.sync"

// Transaction-scoped payload keys.
const (
	keyNegHandler = "ccm.negotiation-handler"
	keyPending    = "ccm.pending-invariants"
)

// Sentinel errors of the constraint consistency manager.
var (
	// ErrConstraintViolated reports a reliable constraint violation; the
	// surrounding transaction is marked rollback-only.
	ErrConstraintViolated = errors.New("core: constraint violated")
	// ErrThreatRejected reports a consistency threat that negotiation did
	// not accept; the surrounding transaction is marked rollback-only.
	ErrThreatRejected = errors.New("core: consistency threat rejected")
	// ErrNoTransaction reports a constrained invocation outside a
	// transaction.
	ErrNoTransaction = errors.New("core: invocation without transaction")
)

// ViolationError carries the violated constraint's name.
type ViolationError struct {
	Constraint string
	Method     string
}

// Error implements error.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("constraint %s violated by %s", e.Constraint, e.Method)
}

// Unwrap makes the error match ErrConstraintViolated.
func (e *ViolationError) Unwrap() error { return ErrConstraintViolated }

// ThreatRejectedError carries the rejected threat's details.
type ThreatRejectedError struct {
	Constraint string
	Degree     constraint.Degree
}

// Error implements error.
func (e *ThreatRejectedError) Error() string {
	return fmt.Sprintf("consistency threat on %s (%s) rejected", e.Constraint, e.Degree)
}

// Unwrap makes the error match ErrThreatRejected.
func (e *ThreatRejectedError) Unwrap() error { return ErrThreatRejected }

// Mode is a node's major system state (Figure 1.4).
type Mode int

// System modes.
const (
	Healthy Mode = iota + 1
	Degraded
	Reconciling
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Reconciling:
		return "reconciling"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config assembles a CCMgr's dependencies.
type Config struct {
	Self     transport.NodeID
	Net      transport.Transport
	GMS      *group.Membership
	Registry *object.Registry
	Repl     *replication.Manager
	Repo     *repository.Repository
	Threats  *threat.Store
	// Obs is the shared observability scope; nil observes into a private
	// registry.
	Obs *obs.Observer
}

// Manager is the constraint consistency manager.
type Manager struct {
	self     transport.NodeID
	gms      *group.Membership
	registry *object.Registry
	repl     *replication.Manager
	repo     *repository.Repository
	threats  *threat.Store
	comm     *group.Comm
	obs      *obs.Observer

	reconciling atomic.Bool
	contexts    sync.Pool // validation contexts a validation handed nothing of (newContext, release)

	mu                    sync.Mutex
	reconciliationHandler ReconciliationHandler
	conflictNotifier      ConflictNotifier
	disableViolated       bool
	replicaConflicts      map[object.ID]struct{}

	validations      *obs.Counter
	violations       *obs.Counter
	threatsDetected  *obs.Counter
	threatsAccepted  *obs.Counter
	threatsRejected  *obs.Counter
	asyncShortcuts   *obs.Counter
	intraObjectSaves *obs.Counter
}

var _ tx.Resource = (*Manager)(nil)

// New creates a CCMgr and registers its network handlers.
func New(cfg Config) (*Manager, error) {
	m := &Manager{
		self:             cfg.Self,
		gms:              cfg.GMS,
		registry:         cfg.Registry,
		repl:             cfg.Repl,
		repo:             cfg.Repo,
		threats:          cfg.Threats,
		obs:              cfg.Obs,
		replicaConflicts: make(map[object.ID]struct{}),
	}
	if m.obs == nil {
		m.obs = obs.New()
	}
	m.validations = m.obs.Counter("core.validations")
	m.violations = m.obs.Counter("core.violations")
	m.threatsDetected = m.obs.Counter("core.threats.detected")
	m.threatsAccepted = m.obs.Counter("core.threats.accepted")
	m.threatsRejected = m.obs.Counter("core.threats.rejected")
	m.asyncShortcuts = m.obs.Counter("core.async_shortcuts")
	m.intraObjectSaves = m.obs.Counter("core.intra_object_saves")
	if cfg.Net != nil {
		m.comm = group.NewComm(cfg.Net)
		if err := cfg.Net.Handle(cfg.Self, msgThreatSync, m.handleThreatSync); err != nil {
			return nil, fmt.Errorf("core: register threat sync handler: %w", err)
		}
	}
	return m, nil
}

// Mode returns this node's current major system state.
func (m *Manager) Mode() Mode {
	if m.reconciling.Load() {
		return Reconciling
	}
	if m.gms != nil && m.gms.Degraded(m.self) {
		return Degraded
	}
	return Healthy
}

// RegisterNegotiationHandler binds a dynamic negotiation handler to the
// transaction (§3.2.1): it is consulted for every threat the transaction
// produces, in preference to the static declarative configuration.
func (m *Manager) RegisterNegotiationHandler(t *tx.Tx, h threat.Handler) {
	t.Put(keyNegHandler, h)
}

// handleThreatSync merges a reconciling peer's store and answers with this
// node's store as it was before the merge, so nothing the peer sent echoes
// back.
func (m *Manager) handleThreatSync(from transport.NodeID, payload any) (any, error) {
	ths, ok := payload.([]threat.Threat)
	if !ok {
		return nil, fmt.Errorf("core: bad threat sync payload %T", payload)
	}
	mine := m.threats.All()
	if err := m.mergeThreats(ths); err != nil {
		return nil, err
	}
	return mine, nil
}

// mergeThreats stores a peer's threats, one Add each: §5.2's cost, which
// makes Figure 5.6's replica phase scale with the threat records.
func (m *Manager) mergeThreats(ths []threat.Threat) error {
	for _, t := range ths {
		if _, _, err := m.threats.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// announceRemoved tells all reachable view members, in one message each, to
// drop the threat identities this node has removed, keeping the replicated
// threat stores convergent, and empties the list; unreachable members
// converge at their next reconciliation. The message leaves through
// replication's sender to each peer, behind every batch — and every threat
// it carries — queued there before. Without replication nothing is sent: no
// threat change reaches a peer then.
func (m *Manager) announceRemoved(callCtx context.Context, idents *[]string) {
	if len(*idents) > 0 && m.repl != nil {
		m.repl.AnnounceThreats(callCtx, threat.Delta{Removed: *idents})
	}
	*idents = nil
}

// lookup resolves an object through the replication manager, which reports
// staleness; without replication it falls back to the local registry.
func (m *Manager) lookup(callCtx context.Context, id object.ID) (*object.Entity, constraint.Staleness, error) {
	if m.repl != nil {
		return m.repl.Lookup(callCtx, id)
	}
	e, err := m.registry.Get(id)
	if err != nil {
		return nil, constraint.Staleness{}, err
	}
	v := e.Version()
	return e, constraint.Staleness{Version: v, EstimatedLatest: v}, nil
}

// partitionWeight returns the current partition's weight fraction.
func (m *Manager) partitionWeight() float64 {
	if m.gms == nil {
		return 1
	}
	return m.gms.PartitionWeight(m.self)
}
