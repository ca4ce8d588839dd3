package core

import (
	"context"
	"fmt"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/threat"
)

// valContext is the ConstraintValidationContext implementation (§4.2.1).
// Every object access through the context is recorded so the CCMgr can
// gather the affected objects and ask the replication manager whether any
// of them are possibly stale (Figure 4.4).
type valContext struct {
	ccm        *Manager
	callCtx    context.Context // caller's deadline/cancellation for lookups
	contextID  object.ID       // the context object named; "" without one
	contextObj *object.Entity  // nil without one or when unresolvable
	called     *object.Entity
	method     string
	args       []any
	result     *any // postconditions: the invocation's result slot
	pre        map[string]any

	// accessed starts in first: a validation touching one object allocates
	// only the context. Whatever outlives the validation copies accessed.
	accessed    []threat.AffectedObject
	first       [1]threat.AffectedObject
	unreachable bool
}

var _ constraint.Context = (*valContext)(nil)

// newContext takes a context from the free list, or allocates one: a reused
// context keeps its access list's array and its pre-state map's storage.
func (m *Manager) newContext(callCtx context.Context, contextObj, called *object.Entity, method string, args []any, result *any) *valContext {
	if callCtx == nil {
		callCtx = context.Background()
	}
	ctx, _ := m.contexts.Get().(*valContext)
	if ctx == nil {
		ctx = new(valContext)
		ctx.accessed = ctx.first[:0]
	}
	ctx.ccm, ctx.callCtx, ctx.contextObj, ctx.called = m, callCtx, contextObj, called
	ctx.method, ctx.args, ctx.result = method, args, result
	if contextObj != nil {
		ctx.contextID = contextObj.ID()
	}
	// The context and called objects are affected objects themselves.
	if called != nil {
		ctx.recordLocal(called)
	}
	if contextObj != nil && contextObj != called {
		ctx.recordLocal(contextObj)
	}
	return ctx
}

// release puts ctx back on the free list, emptied. Only a validation that
// handed nothing of its context out may release it: one that reached
// negotiation leaves it to the collector, since a deferred handler's
// goroutine may outlive the operation (DESIGN.md §15, ninth rule).
func (m *Manager) release(ctx *valContext) {
	clear(ctx.accessed)
	clear(ctx.pre)
	*ctx = valContext{accessed: ctx.accessed[:0], pre: ctx.pre}
	m.contexts.Put(ctx)
}

// setContext names the context object and resolves it once: the called
// object is in hand, any other costs one recorded lookup. An object not
// named (see contextOf) or not resolvable leaves it uncheckable under id.
func (ctx *valContext) setContext(id object.ID, named bool) {
	ctx.contextID = id
	switch {
	case !named:
		ctx.unreachable = true
	case ctx.called != nil && id == ctx.called.ID():
		ctx.contextObj = ctx.called
	default:
		ctx.contextObj, _ = ctx.Lookup(id)
	}
}

// recorded reports whether an access to id is already on the affected list.
// A linear scan replaces the former seen-map: validation contexts touch a
// handful of objects, and a map allocation per invocation is the dominant
// cost at that size.
func (ctx *valContext) recorded(id object.ID) bool {
	for i := range ctx.accessed {
		if ctx.accessed[i].ID == id {
			return true
		}
	}
	return false
}

// recordLocal records an access to an entity already in hand, asking the
// replication manager for its staleness.
func (ctx *valContext) recordLocal(e *object.Entity) {
	if ctx.recorded(e.ID()) {
		return
	}
	v := e.Version()
	st := constraint.Staleness{Version: v, EstimatedLatest: v}
	if ctx.ccm.repl != nil {
		if _, s, err := ctx.ccm.repl.Lookup(ctx.callCtx, e.ID()); err == nil {
			st = s
		}
	}
	ctx.accessed = append(ctx.accessed, threat.AffectedObject{ID: e.ID(), Class: e.Class(), Staleness: st})
}

// ContextObject implements constraint.Context.
func (ctx *valContext) ContextObject() *object.Entity { return ctx.contextObj }

// CalledObject implements constraint.Context.
func (ctx *valContext) CalledObject() *object.Entity { return ctx.called }

// Method implements constraint.Context.
func (ctx *valContext) Method() string { return ctx.method }

// Args implements constraint.Context.
func (ctx *valContext) Args() []any { return ctx.args }

// Result implements constraint.Context.
func (ctx *valContext) Result() any {
	if ctx.result == nil {
		return nil
	}
	return *ctx.result
}

// PreState implements constraint.Context. The map is allocated on first use:
// most constraints never store pre-state, and the context is built per
// matched constraint on the invocation hot path.
func (ctx *valContext) PreState() map[string]any {
	if ctx.pre == nil {
		ctx.pre = make(map[string]any)
	}
	return ctx.pre
}

// PartitionWeight implements constraint.Context (§5.5.2).
func (ctx *valContext) PartitionWeight() float64 { return ctx.ccm.partitionWeight() }

// Lookup implements constraint.Context: it resolves the object through the
// replication manager, records the access, and converts unreachability into
// ErrUncheckable.
func (ctx *valContext) Lookup(id object.ID) (*object.Entity, error) {
	e, st, err := ctx.ccm.lookup(ctx.callCtx, id)
	if err != nil {
		ctx.unreachable = true
		if !ctx.recorded(id) {
			ctx.accessed = append(ctx.accessed, threat.AffectedObject{ID: id})
		}
		return nil, fmt.Errorf("%w: object %s: %w", constraint.ErrUncheckable, id, err)
	}
	if !ctx.recorded(id) {
		ctx.accessed = append(ctx.accessed, threat.AffectedObject{ID: id, Class: e.Class(), Staleness: st})
	}
	return e, nil
}

// Query implements constraint.Context: it returns the local entities of a
// class, recording each access.
func (ctx *valContext) Query(class string) ([]*object.Entity, error) {
	entities := ctx.ccm.registry.OfClass(class)
	for _, e := range entities {
		ctx.recordLocal(e)
	}
	return entities, nil
}

// anyStale reports whether a recorded access was possibly stale.
func (ctx *valContext) anyStale() bool {
	for _, a := range ctx.accessed {
		if a.Staleness.PossiblyStale {
			return true
		}
	}
	return false
}
