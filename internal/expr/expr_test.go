package expr

import (
	"testing"
	"testing/quick"
)

// evalCases are expressions with an environment and their value.
var evalCases = []struct {
	src  string
	env  Env
	want int64
}{
	{"1 + 2", nil, 3},
	{"5 - 2 - 1", nil, 2},
	{"load <= maxLoad", Env{"load": 3, "maxLoad": 5}, 1},
	{"load <= maxLoad", Env{"load": 7, "maxLoad": 5}, 0},
	{"a > 0 && a <= b", Env{"a": 2, "b": 3}, 1},
	{"a > 0 && a <= b", Env{"a": 0, "b": 3}, 0},
	{"a == 0 || b >= 0", Env{"a": 5, "b": 1}, 1},
	{"(1 + 2) == 3", nil, 1},
	{"x < 2", Env{"x": 1}, 1},
	{"x > 2", Env{"x": 1}, 0},
	{"x != 2", Env{"x": 1}, 1},
	{"x != 1", Env{"x": 1}, 0},
	{"old_load + arg0 == load", Env{"old_load": 2, "arg0": 3, "load": 5}, 1},
	{"a.b == 1", Env{"a.b": 1}, 1}, // dotted navigation names
}

func TestParserAndEval(t *testing.T) {
	for _, c := range evalCases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		got, err := e.Eval(c.env)
		if err != nil {
			t.Fatalf("eval %q: %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

// badSources are expressions Parse rejects.
var badSources = []string{"", "1 +", "(1", "1 ~ 2", "== 3", "1 2"}

func TestParseErrors(t *testing.T) {
	for _, src := range badSources {
		if _, err := Parse(src); err == nil {
			t.Errorf("parse %q: expected error", src)
		}
	}
	e := MustParse("missing + 1")
	if _, err := e.Eval(Env{}); err == nil {
		t.Error("unbound variable accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("((")
}

func TestVars(t *testing.T) {
	e := MustParse("b + a <= a + c && d > 0")
	got := Vars(e)
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vars = %v, want %v", got, want)
		}
	}
	if len(Vars(MustParse("1 + 2"))) != 0 {
		t.Fatal("literal expression has vars")
	}
}

// Property: comparisons agree with Go's operators for arbitrary operands.
func TestQuickComparisons(t *testing.T) {
	le := MustParse("a <= b")
	f := func(a, b int32) bool {
		env := Env{"a": int64(a), "b": int64(b)}
		got, err := le.Eval(env)
		if err != nil {
			return false
		}
		return (got == 1) == (a <= b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	sum := MustParse("a + b - b == a")
	g := func(a, b int32) bool {
		env := Env{"a": int64(a), "b": int64(b)}
		got, err := sum.Eval(env)
		return err == nil && got == 1
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzExprParse feeds arbitrary text to the parser, seeded with the tables
// above. Parse must return, never panic, and an expression it accepts must
// evaluate without error once every name Vars reports is bound.
func FuzzExprParse(f *testing.F) {
	for _, c := range evalCases {
		f.Add(c.src)
	}
	for _, src := range badSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		env := Env{}
		for i, name := range Vars(e) {
			env[name] = int64(i) - 1
		}
		if _, err := e.Eval(env); err != nil {
			t.Fatalf("%q under %v: %v", src, env, err)
		}
	})
}
