// Package reconcile orchestrates the reconciliation phase of §4.4 and
// Figure 4.6: after a view change re-unites partitions, the replication
// service first propagates missed updates and resolves write-write replica
// conflicts through the application's replica consistency handler; once a
// replica-consistent state is re-established, the constraint consistency
// manager re-evaluates accepted consistency threats and drives the
// application's constraint reconciliation handler.
//
// The two phases are deliberately separated (§5.2): replica consistency is
// re-established without waiting for the — possibly deferred — constraint
// clean-up, and conflict details from the first phase feed the second.
package reconcile

import (
	"context"
	"fmt"
	"time"

	"dedisys/internal/core"
	"dedisys/internal/group"
	"dedisys/internal/node"
	"dedisys/internal/obs"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
)

// Handlers are the application callbacks of the reconciliation phase.
type Handlers struct {
	// ReplicaResolver produces replica-consistent states for write-write
	// conflicts; nil uses the generic most-updates rule.
	ReplicaResolver replication.ConflictResolver
	// ConstraintHandler cleans up violated constraints (immediate when it
	// returns true, deferred otherwise); nil defers every violation.
	ConstraintHandler core.ReconciliationHandler
	// ConflictNotifier receives notifications for satisfied constraints
	// whose threats carried the NotifyOnReplicaConflict instruction.
	ConflictNotifier core.ConflictNotifier
	// DropHistoryAfter clears the degraded-mode state history once
	// reconciliation finished.
	DropHistoryAfter bool
	// BeforeConstraints, when set, is called as the constraint phase starts,
	// once the replica phase's time is taken (fig5.6 reads the store counters).
	BeforeConstraints func()
}

// Report summarises a full reconciliation pass with per-phase timing
// (the two bars of Figure 5.6).
type Report struct {
	Replica            replication.ReconcileReport
	Constraint         core.ThreatReport
	ReplicaDuration    time.Duration
	ConstraintDuration time.Duration
}

// Run performs reconciliation from the given node towards the peers that
// re-joined its view. Typically one node per merged partition pair drives
// the pass; pushed states and threat removals propagate to the others. The
// context bounds both phases: every pull, push and threat exchange inherits
// its deadline and cancellation.
func Run(ctx context.Context, n *node.Node, peers []transport.NodeID, h Handlers) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var report Report
	if n.Repl == nil {
		return report, fmt.Errorf("reconcile: node %s has no replication service", n.ID)
	}

	// Phase 1: replica reconciliation (propagate missed updates, resolve
	// write-write conflicts via the replica consistency handler).
	if n.Obs.Tracing() {
		n.Obs.Emit(obs.EventReconcilePhase, fmt.Sprintf("replica phase start, peers %v", peers))
	}
	start := time.Now()
	replicaReport, err := n.Repl.ReconcileWith(ctx, peers, h.ReplicaResolver)
	report.Replica = replicaReport
	if err != nil {
		report.ReplicaDuration = time.Since(start)
		return report, fmt.Errorf("reconcile: replica phase: %w", err)
	}
	// Missed updates include the consistency threats recorded during the
	// degraded period (§5.2); exchanging them — one round, both directions —
	// is part of this phase's cost.
	if n.CCM != nil {
		if err := n.CCM.SyncThreats(ctx, peers); err != nil {
			report.ReplicaDuration = time.Since(start)
			return report, fmt.Errorf("reconcile: threat sync: %w", err)
		}
	}
	// Naming bindings created in other partitions are synchronised as part
	// of the missed-update propagation, both ways in one round. Skipped peers
	// (unreachable again) catch up on a later pass and are surfaced as events
	// rather than silently dropped.
	if n.Naming != nil {
		for _, sr := range n.Naming.SyncAll(ctx, peers) {
			if sr.Err != nil {
				n.Obs.Counter("reconcile.naming.skipped").Inc()
				if n.Obs.Tracing() {
					n.Obs.Emit(obs.EventNamingSyncSkip, fmt.Sprintf("peer %s: %v", sr.Peer, sr.Err))
				}
			}
		}
	}
	report.ReplicaDuration = time.Since(start)
	n.Obs.Histogram("reconcile.replica.duration").Observe(report.ReplicaDuration)
	if n.Obs.Tracing() {
		n.Obs.Emit(obs.EventReconcilePhase, fmt.Sprintf("replica phase done in %v: pushed %d adopted %d conflicts %d",
			report.ReplicaDuration, report.Replica.Pushed, report.Replica.Adopted, report.Replica.Conflicts))
	}

	// Phase 2: constraint reconciliation (re-evaluate accepted threats).
	if n.CCM != nil {
		n.CCM.SetReconciliationHandler(h.ConstraintHandler)
		n.CCM.SetConflictNotifier(h.ConflictNotifier)
		n.CCM.NoteReplicaConflicts(replicaReport.ConflictIDs)
		if h.BeforeConstraints != nil {
			h.BeforeConstraints()
		}
		start = time.Now()
		threatReport, err := n.CCM.ReconcileThreats(ctx)
		report.Constraint = threatReport
		report.ConstraintDuration = time.Since(start)
		n.Obs.Histogram("reconcile.constraint.duration").Observe(report.ConstraintDuration)
		if n.Obs.Tracing() {
			n.Obs.Emit(obs.EventReconcilePhase, fmt.Sprintf("constraint phase done in %v: reevaluated %d removed %d violations %d",
				report.ConstraintDuration, threatReport.Reevaluated, threatReport.Removed, threatReport.Violations))
		}
		n.CCM.ClearReplicaConflicts()
		if err != nil {
			return report, fmt.Errorf("reconcile: constraint phase: %w", err)
		}
	}

	if h.DropHistoryAfter {
		n.Repl.ClearHistory()
	}
	return report, nil
}

// Auto arranges for reconciliation to run automatically whenever new nodes
// join this node's view (the GMS notification of Figure 4.6). The onDone
// callback receives each pass's report; errors are delivered through it as
// well so the caller decides how to surface them.
func Auto(n *node.Node, h Handlers, onDone func(Report, error)) {
	n.GMS().OnViewChange(n.ID, func(old, nw group.View) {
		joined := newMembers(old.Members, nw.Members, n.ID)
		if len(joined) == 0 {
			return
		}
		report, err := Run(context.Background(), n, joined, h)
		if onDone != nil {
			onDone(report, err)
		}
	})
}

func newMembers(old, nw []transport.NodeID, self transport.NodeID) []transport.NodeID {
	seen := make(map[transport.NodeID]struct{}, len(old))
	for _, id := range old {
		seen[id] = struct{}{}
	}
	var joined []transport.NodeID
	for _, id := range nw {
		if id == self {
			continue
		}
		if _, ok := seen[id]; !ok {
			joined = append(joined, id)
		}
	}
	return joined
}
