package script

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"unicode"
)

func runScript(t *testing.T, src string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := New(&out).Run(strings.NewReader(src))
	return out.String(), err
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	cmds, err := Parse(strings.NewReader("# comment\n\ncluster 2\n  echo hi  \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 2 || cmds[0].Op != "cluster" || cmds[1].Op != "echo" {
		t.Fatalf("cmds = %+v", cmds)
	}
	if cmds[0].Line != 3 {
		t.Fatalf("line = %d", cmds[0].Line)
	}
}

// The full §1.3 flight booking story as a scenario script.
const flightStory = `
constraint Ticket HARD RELAXABLE UNCHECKABLE sold <= seats
cluster 2
create n1 f1 seats=80 sold=70
set n1 f1 sold 75
expect n2 f1 sold 75
fail set n1 f1 sold 81
mode n1 healthy
partition n1 | n2
mode n1 degraded
set n1 f1 sold 77
set n2 f1 sold 78
threats n1 1
heal
reconcile n1
# the write-write conflict resolves via the most-updates rule; with one
# degraded write on each side the tie keeps the driver's replica (77)
expect n1 f1 sold 77
expect n2 f1 sold 77
threats n1 0
echo scenario complete
`

func TestFlightStoryScript(t *testing.T) {
	out, err := runScript(t, flightStory)
	if err != nil {
		t.Fatalf("script failed: %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "scenario complete") {
		t.Fatalf("output = %s", out)
	}
	if !strings.Contains(out, "rejected as expected") {
		t.Fatalf("fail-set not reported: %s", out)
	}
}

// failingAssertions are scripts whose last line is an assertion that fails.
var failingAssertions = []string{
	"cluster 1\ncreate n1 b1 v=1\nexpect n1 b1 v 2",
	"cluster 1\ncreate n1 b1 v=1\nthreats n1 5",
	"cluster 1\nmode n1 degraded",
	"constraint C HARD RELAXABLE UNCHECKABLE v <= 5\ncluster 1\ncreate n1 b1 v=0\nfail set n1 b1 v 3",
}

func TestAssertionFailures(t *testing.T) {
	for i, src := range failingAssertions {
		_, err := runScript(t, src)
		if !errors.Is(err, ErrAssertion) {
			t.Errorf("case %d: err = %v, want assertion failure", i, err)
		}
	}
}

func TestConstraintEnforcementViaScript(t *testing.T) {
	src := `
constraint Cap HARD RELAXABLE UNCHECKABLE used <= cap
cluster 1
create n1 b1 used=0 cap=3
set n1 b1 used 3
fail set n1 b1 used 4
expect n1 b1 used 3
`
	if _, err := runScript(t, src); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoverReconcile(t *testing.T) {
	src := `
cluster 3
create n1 b1 v=0
crash n3
set n1 b1 v 5
recover n3
reconcile n1
expect n3 b1 v 5
`
	if _, err := runScript(t, src); err != nil {
		t.Fatal(err)
	}
}

func TestLateConstraintDeploysToExistingCluster(t *testing.T) {
	src := `
cluster 1
constraint Cap HARD RELAXABLE UNCHECKABLE v <= 1
create n1 b1 v=0
fail set n1 b1 v 2
`
	if _, err := runScript(t, src); err != nil {
		t.Fatal(err)
	}
}

// badScripts are scripts that parse but fail to run.
var badScripts = []string{
	"bogus",
	"cluster x",
	"cluster 2 unknown-protocol",
	"cluster 1\ncluster 1",
	"create n1 b1",                   // no cluster... actually create needs cluster first
	"cluster 1\ncreate n9 b1",        // unknown node
	"cluster 1\ncreate n1 b1 broken", // bad attr
	"cluster 1\ncreate n1 b1 v=x",    // bad int
	"cluster 1\npartition n1",        // one group
	"cluster 1\nset n1",              // arity
	"cluster 1\nfail echo hi",        // fail without set
	"constraint C HARD RELAXABLE BOGUS v <= 1",
	"constraint C BOGUS RELAXABLE UNCHECKABLE v <= 1",
	"constraint C HARD BOGUS UNCHECKABLE v <= 1",
	"constraint C HARD RELAXABLE UNCHECKABLE ((",
	"set n1 b1 v 1", // no cluster
	"reconcile",     // arity
	"mode n1 sideways",
	"crash",
	"recover",
	"threats n1",
}

func TestScriptErrors(t *testing.T) {
	for i, src := range badScripts {
		if _, err := runScript(t, src); err == nil {
			t.Errorf("case %d (%q): expected error", i, src)
		}
	}
}

func TestProtocolSelection(t *testing.T) {
	for token, name := range map[string]string{
		"p4": "P4", "primary-backup": "primary-backup", "primary-partition": "primary-partition",
		"adaptive-voting": "adaptive-voting", "quorum": "quorum", "quorum=2": "quorum", "pp": "primary-partition",
	} {
		out, err := runScript(t, "cluster 2 "+token+"\n")
		if err != nil {
			t.Fatalf("%s: %v", token, err)
		}
		if !strings.Contains(out, "cluster of 2 nodes ("+name) {
			t.Fatalf("%s: output = %s", token, out)
		}
	}
}

// The detector cluster token switches membership to heartbeat-driven views:
// right after a partition the mode is still healthy (views lag), and await
// absorbs the detection latency before asserting degraded.
const detectorStory = `
cluster 2 detector
mode n1 healthy
partition n1 | n2
mode n1 healthy
await n1 degraded 5s
heal
await n1 healthy 5s
metric detect.suspicions
echo detector scenario complete
`

func TestDetectorScript(t *testing.T) {
	out, err := runScript(t, detectorStory)
	if err != nil {
		t.Fatalf("script failed: %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "detector scenario complete") {
		t.Fatalf("output = %s", out)
	}
	if !strings.Contains(out, "detect.suspicions") {
		t.Fatalf("metric command printed nothing:\n%s", out)
	}
}

func TestSleepAndAwaitErrors(t *testing.T) {
	if _, err := runScript(t, "cluster 1\nsleep nonsense\n"); err == nil {
		t.Fatal("bad sleep duration accepted")
	}
	if _, err := runScript(t, "cluster 2 detector\nawait n1 degraded 20ms\n"); !errors.Is(err, ErrAssertion) {
		t.Fatalf("await on a healthy cluster should time out with ErrAssertion, got %v", err)
	}
	if _, err := runScript(t, "cluster 1\nawait n1 bogus\n"); err == nil {
		t.Fatal("bad await mode accepted")
	}
}

// FuzzScriptParse feeds arbitrary text to the script parser, seeded with the
// scripts above. Parse must return, never panic, and every command it
// returns must come from a later line than the one before, with an
// operation that is not a comment and no white space inside a field.
func FuzzScriptParse(f *testing.F) {
	for _, src := range append(append([]string{flightStory, detectorStory}, failingAssertions...), badScripts...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cmds, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		line := 0
		for _, c := range cmds {
			if c.Line <= line || c.Op == "" || strings.HasPrefix(c.Op, "#") {
				t.Fatalf("command %+v after line %d", c, line)
			}
			line = c.Line
			for _, field := range append([]string{c.Op}, c.Args...) {
				if field == "" || strings.ContainsFunc(field, unicode.IsSpace) {
					t.Fatalf("command %+v has field %q", c, field)
				}
			}
		}
	})
}
