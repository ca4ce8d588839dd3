package constraint

import (
	"fmt"

	"dedisys/internal/expr"
	"dedisys/internal/object"
)

// Declarative constraints implement the §7.1 future-work direction: design-
// phase constraint specifications (OCL-style boolean expressions over the
// context object's attributes) are compiled into runtime integrity
// constraints instead of being hand-implemented, closing the gap between
// analysis/design artefacts and the implementation (§1.5).
//
// The expression language binds:
//
//	<attr>           integer attributes of the context object
//	<attr>.len       length of string attributes
//	<ref>.<attr>     integer attributes of a referenced object (one hop,
//	                 following an object-reference attribute)
//	arg0, arg1, ...  integer invocation arguments (pre/postconditions)
//
// Example: the ticket-constraint of Figure 1.6 becomes
//
//	FromExpr("TicketConstraint", "sold <= seats")

// ExprConstraint is a runtime constraint compiled from an expression.
type ExprConstraint struct {
	expr expr.Expr
	vars []string
}

var _ Constraint = (*ExprConstraint)(nil)

// FromExpr compiles a declarative constraint. The returned constraint is
// satisfied when the expression evaluates to a non-zero value on the
// context object.
func FromExpr(src string) (*ExprConstraint, error) {
	e, err := expr.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("constraint: declarative %q: %w", src, err)
	}
	return &ExprConstraint{expr: e, vars: expr.Vars(e)}, nil
}

// MustFromExpr compiles or panics; for package-level constraint tables.
func MustFromExpr(src string) *ExprConstraint {
	c, err := FromExpr(src)
	if err != nil {
		panic(err)
	}
	return c
}

// Validate implements Constraint: it binds the referenced variables from
// the context object (navigating one reference hop where needed) and
// evaluates the expression.
func (c *ExprConstraint) Validate(ctx Context) (bool, error) {
	env := make(expr.Env, len(c.vars))
	for _, v := range c.vars {
		val, err := bindVar(ctx, v)
		if err != nil {
			return false, err
		}
		env[v] = val
	}
	res, err := c.expr.Eval(env)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrUncheckable, err)
	}
	return res != 0, nil
}

// bindVar resolves one variable of the expression against the validation
// context.
func bindVar(ctx Context, name string) (int64, error) {
	if n, ok := argIndex(name); ok {
		args := ctx.Args()
		if n >= len(args) {
			return 0, fmt.Errorf("%w: argument %s out of range", ErrUncheckable, name)
		}
		return toInt64(args[n], name)
	}
	obj := ctx.ContextObject()
	if obj == nil {
		obj = ctx.CalledObject()
	}
	if obj == nil {
		return 0, fmt.Errorf("%w: no context object for %s", ErrUncheckable, name)
	}
	head, rest := splitDot(name)
	if rest == "" {
		return attrValue(obj, head)
	}
	if rest == "len" {
		return int64(len(obj.GetString(head))), nil
	}
	// One navigation hop: head is a reference attribute.
	ref := obj.GetRef(head)
	if ref == "" {
		return 0, fmt.Errorf("%w: empty reference %s on %s", ErrUncheckable, head, obj.ID())
	}
	target, err := ctx.Lookup(ref)
	if err != nil {
		return 0, err
	}
	sub, subRest := splitDot(rest)
	if subRest == "len" {
		return int64(len(target.GetString(sub))), nil
	}
	if subRest != "" {
		return 0, fmt.Errorf("constraint: declarative navigation deeper than one hop: %s", name)
	}
	return attrValue(target, sub)
}

func attrValue(e *object.Entity, attr string) (int64, error) {
	v, err := e.Get(attr)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrUncheckable, err)
	}
	return toInt64(v, attr)
}

func toInt64(v any, name string) (int64, error) {
	switch n := v.(type) {
	case int:
		return int64(n), nil
	case int64:
		return n, nil
	case float64:
		return int64(n), nil
	case bool:
		if n {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("constraint: declarative variable %s has non-numeric value %T", name, v)
	}
}

func argIndex(name string) (int, bool) {
	if len(name) < 4 || name[:3] != "arg" {
		return 0, false
	}
	n := 0
	for i := 3; i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func splitDot(name string) (head, rest string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i], name[i+1:]
		}
	}
	return name, ""
}
