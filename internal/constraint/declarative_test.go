package constraint

import (
	"errors"
	"testing"

	"dedisys/internal/object"
)

// declCtx is a minimal context for declarative constraint tests.
type declCtx struct {
	obj    *object.Entity
	args   []any
	lookup map[object.ID]*object.Entity
}

func (d *declCtx) ContextObject() *object.Entity { return d.obj }
func (d *declCtx) CalledObject() *object.Entity  { return d.obj }
func (d *declCtx) Method() string                { return "" }
func (d *declCtx) Args() []any                   { return d.args }
func (d *declCtx) Result() any                   { return nil }
func (d *declCtx) PreState() map[string]any      { return nil }
func (d *declCtx) PartitionWeight() float64      { return 1 }
func (d *declCtx) Lookup(id object.ID) (*object.Entity, error) {
	if e, ok := d.lookup[id]; ok {
		return e, nil
	}
	return nil, ErrUncheckable
}
func (d *declCtx) Query(class string) ([]*object.Entity, error) { return nil, nil }

var _ Context = (*declCtx)(nil)

func TestFromExprTicketConstraint(t *testing.T) {
	c, err := FromExpr("sold <= seats")
	if err != nil {
		t.Fatal(err)
	}
	flight := object.New("Flight", "f1", object.State{"sold": int64(70), "seats": int64(80)})
	ok, err := c.Validate(&declCtx{obj: flight})
	if err != nil || !ok {
		t.Fatalf("within capacity: %v %v", ok, err)
	}
	flight.Set("sold", int64(81))
	ok, err = c.Validate(&declCtx{obj: flight})
	if err != nil || ok {
		t.Fatalf("overbooked: %v %v", ok, err)
	}
}

func TestFromExprArguments(t *testing.T) {
	c := MustFromExpr("arg0 > 0 && arg0 <= seats - sold")
	flight := object.New("Flight", "f1", object.State{"sold": int64(70), "seats": int64(80)})
	ok, err := c.Validate(&declCtx{obj: flight, args: []any{int64(10)}})
	if err != nil || !ok {
		t.Fatalf("valid arg: %v %v", ok, err)
	}
	ok, err = c.Validate(&declCtx{obj: flight, args: []any{int64(11)}})
	if err != nil || ok {
		t.Fatalf("excess arg: %v %v", ok, err)
	}
	if _, err := c.Validate(&declCtx{obj: flight}); !errors.Is(err, ErrUncheckable) {
		t.Fatalf("missing arg err = %v", err)
	}
}

func TestFromExprStringLength(t *testing.T) {
	c := MustFromExpr("name.len > 0 && name.len <= 8")
	e := object.New("T", "t1", object.State{"name": "Ann"})
	ok, err := c.Validate(&declCtx{obj: e})
	if err != nil || !ok {
		t.Fatalf("short name: %v %v", ok, err)
	}
	e.Set("name", "far too long a name")
	ok, err = c.Validate(&declCtx{obj: e})
	if err != nil || ok {
		t.Fatalf("long name: %v %v", ok, err)
	}
}

func TestFromExprNavigation(t *testing.T) {
	// The endpoints-must-match constraint of the DTMS, declaratively.
	c := MustFromExpr("frequency == peer.frequency")
	peer := object.New("Endpoint", "e2", object.State{"frequency": int64(118000)})
	ep := object.New("Endpoint", "e1", object.State{"frequency": int64(118000), "peer": object.ID("e2")})
	ctx := &declCtx{obj: ep, lookup: map[object.ID]*object.Entity{"e2": peer}}
	ok, err := c.Validate(ctx)
	if err != nil || !ok {
		t.Fatalf("matching: %v %v", ok, err)
	}
	peer.Set("frequency", int64(121500))
	ok, err = c.Validate(ctx)
	if err != nil || ok {
		t.Fatalf("mismatching: %v %v", ok, err)
	}
	// Unreachable navigation target is uncheckable.
	ctx.lookup = nil
	if _, err := c.Validate(ctx); !errors.Is(err, ErrUncheckable) {
		t.Fatalf("unreachable err = %v", err)
	}
	// Empty reference attribute is uncheckable.
	ep.Set("peer", "")
	if _, err := c.Validate(ctx); !errors.Is(err, ErrUncheckable) {
		t.Fatalf("empty ref err = %v", err)
	}
}

func TestFromExprErrors(t *testing.T) {
	if _, err := FromExpr("(((("); err == nil {
		t.Fatal("bad expression accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromExpr should panic")
		}
	}()
	MustFromExpr("((")
}

func TestFromExprNonNumericAttribute(t *testing.T) {
	c := MustFromExpr("name > 0")
	e := object.New("T", "t1", object.State{"name": "Ann"})
	if _, err := c.Validate(&declCtx{obj: e}); err == nil {
		t.Fatal("string attribute used numerically should fail")
	}
	// Missing attribute is uncheckable.
	c2 := MustFromExpr("missing > 0")
	if _, err := c2.Validate(&declCtx{obj: e}); !errors.Is(err, ErrUncheckable) {
		t.Fatalf("missing attr err = %v", err)
	}
	// No context object at all.
	if _, err := c.Validate(&declCtx{}); !errors.Is(err, ErrUncheckable) {
		t.Fatalf("nil obj err = %v", err)
	}
}

func TestFromExprDeepNavigationRejected(t *testing.T) {
	c := MustFromExpr("a.b.c > 0")
	hub := object.New("T", "h", object.State{"a": object.ID("x")})
	x := object.New("T", "x", object.State{"b": object.ID("y")})
	ctx := &declCtx{obj: hub, lookup: map[object.ID]*object.Entity{"x": x}}
	if _, err := c.Validate(ctx); err == nil {
		t.Fatal("two-hop navigation accepted")
	}
}

func TestFromExprBoolAttribute(t *testing.T) {
	c := MustFromExpr("active == 1")
	e := object.New("T", "t1", object.State{"active": true})
	ok, err := c.Validate(&declCtx{obj: e})
	if err != nil || !ok {
		t.Fatalf("bool attr: %v %v", ok, err)
	}
	e.Set("active", false)
	ok, err = c.Validate(&declCtx{obj: e})
	if err != nil || ok {
		t.Fatalf("bool attr false: %v %v", ok, err)
	}
}
