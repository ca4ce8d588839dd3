// Package constraint defines data integrity constraints as first-class
// runtime citizens (dissertation §1.5, §4.2.1): the Constraint contract
// between middleware and application, constraint metadata, satisfaction
// degrees with their combination rules (§3.1), freshness criteria, and the
// XML constraint configuration format (Listing 4.1).
package constraint

import (
	"errors"
	"fmt"

	"dedisys/internal/object"
)

// Type classifies when a constraint is validated (§1.6, §5.5.3).
type Type int

// Constraint types.
const (
	// Pre conditions are checked before the affected method runs.
	Pre Type = iota + 1
	// Post conditions are checked after the affected method returns.
	Post
	// HardInvariant constraints are checked at the end of each affected
	// operation, inside the surrounding transaction.
	HardInvariant
	// SoftInvariant constraints are checked at the end of the transaction
	// (during prepare of the two-phase commit).
	SoftInvariant
	// AsyncInvariant constraints (§5.5.3) behave like soft invariants in a
	// healthy system but are not validated at all in degraded mode: a threat
	// is recorded directly and re-evaluated during reconciliation.
	AsyncInvariant
)

// String returns the configuration-file spelling of the type.
func (t Type) String() string {
	switch t {
	case Pre:
		return "PRE"
	case Post:
		return "POST"
	case HardInvariant:
		return "HARD"
	case SoftInvariant:
		return "SOFT"
	case AsyncInvariant:
		return "ASYNC"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses the configuration-file spelling of a constraint type.
func ParseType(s string) (Type, error) {
	switch s {
	case "PRE":
		return Pre, nil
	case "POST":
		return Post, nil
	case "HARD":
		return HardInvariant, nil
	case "SOFT":
		return SoftInvariant, nil
	case "ASYNC":
		return AsyncInvariant, nil
	default:
		return 0, fmt.Errorf("constraint: unknown type %q", s)
	}
}

// Priority classifies constraints into tradeable and non-tradeable (§3).
type Priority int

// Priorities. The configuration file uses the dissertation's keyword
// RELAXABLE for tradeable constraints.
const (
	// NonTradeable constraints are critical and must never be violated;
	// consistency threats against them are rejected automatically.
	NonTradeable Priority = iota + 1
	// Tradeable constraints must hold in a healthy system but may be relaxed
	// during degraded mode to increase availability.
	Tradeable
)

// String returns the configuration-file spelling of the priority.
func (p Priority) String() string {
	switch p {
	case NonTradeable:
		return "CRITICAL"
	case Tradeable:
		return "RELAXABLE"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// ParsePriority parses the configuration-file spelling of a priority.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "CRITICAL":
		return NonTradeable, nil
	case "RELAXABLE":
		return Tradeable, nil
	default:
		return 0, fmt.Errorf("constraint: unknown priority %q", s)
	}
}

// Scope distinguishes intra-object from inter-object constraints (§3.1).
// Intra-object constraints validated on a single non-conflicting replica can
// report Satisfied instead of PossiblySatisfied, reducing threat volume.
type Scope int

// Scopes.
const (
	// InterObject constraints need access to more than one object (default).
	InterObject Scope = iota + 1
	// IntraObject constraints are evaluated on a single object's attributes.
	IntraObject
)

// Degree is the satisfaction degree of a constraint validation (§3.1).
// The ordering is total: Violated < Uncheckable < PossiblyViolated <
// PossiblySatisfied < Satisfied.
type Degree int

// Satisfaction degrees, ordered from worst to best.
const (
	Violated Degree = iota + 1
	Uncheckable
	PossiblyViolated
	PossiblySatisfied
	Satisfied
)

// String returns the configuration-file spelling of the degree.
func (d Degree) String() string {
	switch d {
	case Violated:
		return "VIOLATED"
	case Uncheckable:
		return "UNCHECKABLE"
	case PossiblyViolated:
		return "POSSIBLY_VIOLATED"
	case PossiblySatisfied:
		return "POSSIBLY_SATISFIED"
	case Satisfied:
		return "SATISFIED"
	default:
		return fmt.Sprintf("Degree(%d)", int(d))
	}
}

// ParseDegree parses the configuration-file spelling of a degree.
func ParseDegree(s string) (Degree, error) {
	switch s {
	case "VIOLATED":
		return Violated, nil
	case "UNCHECKABLE":
		return Uncheckable, nil
	case "POSSIBLY_VIOLATED":
		return PossiblyViolated, nil
	case "POSSIBLY_SATISFIED":
		return PossiblySatisfied, nil
	case "SATISFIED":
		return Satisfied, nil
	default:
		return 0, fmt.Errorf("constraint: unknown degree %q", s)
	}
}

// IsThreat reports whether the degree indicates a consistency threat:
// the validation was not fully reliable (§3.1).
func (d Degree) IsThreat() bool {
	return d == PossiblySatisfied || d == PossiblyViolated || d == Uncheckable
}

// ErrUncheckable signals that a constraint could not be validated because at
// least one affected object is unreachable (no replica accessible). Validate
// implementations return it (possibly wrapped) to yield the Uncheckable
// degree; any other validation error also maps to Uncheckable.
var ErrUncheckable = errors.New("constraint: uncheckable")

// Staleness describes the replication layer's knowledge about one accessed
// object at validation time (§4.2.1's VersionedEntity mechanism).
type Staleness struct {
	// PossiblyStale is true when the object's local view might have missed
	// updates performed in another network partition.
	PossiblyStale bool
	// Version is the version of the locally visible replica.
	Version int64
	// EstimatedLatest is the version the object would be expected to have if
	// no partition occurred (getEstimatedLatestVersion in the dissertation).
	EstimatedLatest int64
}

// MissedEstimate returns the estimated number of missed updates.
func (s Staleness) MissedEstimate() int64 {
	if s.EstimatedLatest > s.Version {
		return s.EstimatedLatest - s.Version
	}
	return 0
}

// Context is the ConstraintValidationContext handed to Validate (§4.2.1).
// Lookups through the context are recorded so the middleware can gather the
// accessed objects and consult the replication layer about staleness
// (Figure 4.4 "gather affected objects"). A context, and the map PreState
// returns, are valid only during the call they were passed to (for a
// postcondition, from BeforeInvocation to Validate): the middleware reuses
// them for later validations.
type Context interface {
	// ContextObject returns the invariant constraint's starting object, or
	// nil for query-based invariants, pre- and postconditions without one.
	ContextObject() *object.Entity
	// CalledObject returns the object whose method triggered validation.
	CalledObject() *object.Entity
	// Method returns the triggering method name ("" for query revalidation).
	Method() string
	// Args returns the triggering method's arguments.
	Args() []any
	// Result returns the method result (postconditions only).
	Result() any
	// Lookup resolves an object reference, recording the access. It returns
	// an error wrapping ErrUncheckable when no replica is reachable.
	Lookup(id object.ID) (*object.Entity, error)
	// Query returns all reachable objects of a class, recording accesses.
	Query(class string) ([]*object.Entity, error)
	// PartitionWeight returns the weight fraction (0..1] of the current
	// network partition relative to the whole system (§5.5.2); 1 when the
	// system is healthy.
	PartitionWeight() float64
	// PreState gives postconditions access to values stored by
	// BeforeInvocation (the OCL @pre operator, §4.2.1).
	PreState() map[string]any
}

// Constraint is the primary middleware/application contract: one class per
// integrity constraint with a Validate method (Listing 1.2).
type Constraint interface {
	// Validate returns whether the constraint is satisfied. Returning an
	// error (conventionally wrapping ErrUncheckable) marks the validation
	// impossible.
	Validate(ctx Context) (bool, error)
}

// BeforeValidator is implemented by postcondition constraints that must
// capture state before the method invocation (beforeMethodInvocation in
// Figure 4.3).
type BeforeValidator interface {
	BeforeInvocation(ctx Context)
}

// Func adapts a plain function to the Constraint interface.
type Func func(ctx Context) (bool, error)

// Validate implements Constraint.
func (f Func) Validate(ctx Context) (bool, error) { return f(ctx) }

// ContextPreparer names the constraint's context object given the called
// object (the <preparation-class> of Listing 4.1). The middleware resolves
// the named object once, recording the access.
type ContextPreparer interface {
	// ContextID names the context object for a triggered validation.
	ContextID(called *object.Entity) (object.ID, error)
}

// CalledObjectIsContext uses the called object itself as context object.
type CalledObjectIsContext struct{}

// ContextID implements ContextPreparer.
func (CalledObjectIsContext) ContextID(called *object.Entity) (object.ID, error) {
	return called.ID(), nil
}

// ReferenceIsContext names the object a reference attribute of the called
// object points to (the getter-based preparation class of Listing 4.1).
type ReferenceIsContext struct {
	// Attr is the attribute of the called object holding the context
	// object's ID.
	Attr string
}

// ContextID implements ContextPreparer.
func (r ReferenceIsContext) ContextID(called *object.Entity) (object.ID, error) {
	ref := called.GetRef(r.Attr)
	if ref == "" {
		return "", fmt.Errorf("%w: reference attribute %s.%s empty", ErrUncheckable, called.Class(), r.Attr)
	}
	return ref, nil
}

// AffectedMethod names one method whose invocation triggers validation of a
// constraint (§1.6) together with the context preparation strategy.
type AffectedMethod struct {
	Class  string
	Method string
	Prep   ContextPreparer
}

// FreshnessCriterion bounds the acceptable staleness of accessed objects of
// one class during static negotiation (§3.2.1, Figure 4.3).
type FreshnessCriterion struct {
	Class string
	// MaxAge is the maximum acceptable estimated number of missed updates.
	MaxAge int64
}

// Meta is the application-supplied metadata about one constraint
// (Figure 4.3 and the configuration file of Listing 4.1).
type Meta struct {
	// Name uniquely identifies the constraint within the application.
	Name string
	// Type determines the trigger point.
	Type Type
	// Priority marks the constraint tradeable or non-tradeable.
	Priority Priority
	// Scope marks the constraint intra- or inter-object; inter-object is the
	// safe default.
	Scope Scope
	// MinDegree is the minimum satisfaction degree acceptable during static
	// negotiation of consistency threats.
	MinDegree Degree
	// NeedsContext states whether Validate requires a context object.
	NeedsContext bool
	// ContextClass is the class of the context object for invariants.
	ContextClass string
	// Description is free documentation text.
	Description string
	// Affected lists the methods that trigger validation.
	Affected []AffectedMethod
	// SkipOnCreate exempts entity creation from this invariant: only the
	// listed affected methods trigger it (§1.6 — validation is triggered
	// for affected methods specified by the application developer).
	SkipOnCreate bool
	// CaptureAffectedState enriches accepted threats with the serialized
	// state of the affected objects at detection time (§3.2.2).
	CaptureAffectedState bool
	// Freshness lists per-class staleness bounds for static negotiation.
	Freshness []FreshnessCriterion
	// Instructions carries reconciliation instructions stored with accepted
	// threats (§3.2.2).
	Instructions ReconciliationInstructions
}

// ReconciliationInstructions configure how accepted threats of a constraint
// are processed during reconciliation (§3.2.2, §3.3).
type ReconciliationInstructions struct {
	// AllowRollback permits history-based rollback during reconciliation.
	AllowRollback bool
	// NotifyOnReplicaConflict requests an application notification when a
	// satisfied constraint had an underlying replica conflict.
	NotifyOnReplicaConflict bool
}

// Validate checks the metadata for completeness.
func (m *Meta) Validate() error {
	if m.Name == "" {
		return errors.New("constraint: meta requires a name")
	}
	if m.Type < Pre || m.Type > AsyncInvariant {
		return fmt.Errorf("constraint %s: invalid type %d", m.Name, int(m.Type))
	}
	if m.Priority == 0 {
		return fmt.Errorf("constraint %s: priority not set", m.Name)
	}
	if m.MinDegree == 0 {
		return fmt.Errorf("constraint %s: minimum satisfaction degree not set", m.Name)
	}
	if m.NeedsContext && m.ContextClass == "" {
		return fmt.Errorf("constraint %s: context object required but context class empty", m.Name)
	}
	if len(m.Affected) == 0 && m.NeedsContext {
		return fmt.Errorf("constraint %s: no affected methods", m.Name)
	}
	for _, am := range m.Affected {
		if am.Class == "" || am.Method == "" {
			return fmt.Errorf("constraint %s: affected method requires class and method", m.Name)
		}
		if am.Prep == nil && m.NeedsContext {
			return fmt.Errorf("constraint %s: affected method %s.%s lacks context preparation", m.Name, am.Class, am.Method)
		}
	}
	return nil
}

// FreshnessFor returns the freshness bound for a class and whether one is
// configured.
func (m *Meta) FreshnessFor(class string) (int64, bool) {
	for _, f := range m.Freshness {
		if f.Class == class {
			return f.MaxAge, true
		}
	}
	return 0, false
}
