package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dedisys/internal/obs"
)

func TestRegistryAndByID(t *testing.T) {
	reg := Registry()
	if len(reg) < 14 {
		t.Fatalf("registry size = %d", len(reg))
	}
	seen := make(map[string]bool)
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, err := ByID(e.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestResultTable(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	r.AddRow("row1", 1, 2.5)
	r.AddRow("row2", 1234.5, 3)
	r.AddNote("a note %d", 7)
	if v, ok := r.Cell("row1", "b"); !ok || v != 2.5 {
		t.Fatalf("Cell = %v %v", v, ok)
	}
	if _, ok := r.Cell("row1", "nope"); ok {
		t.Fatal("missing column found")
	}
	if _, ok := r.Cell("nope", "a"); ok {
		t.Fatal("missing row found")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== x — t ==", "row1", "1234.5", "a note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.Ops <= 0 || c.Runs <= 0 || c.Entities <= 0 {
		t.Fatalf("normalize = %+v", c)
	}
	d := DefaultConfig()
	if d.Ops != 1000 || d.NetCost <= 0 || d.StoreCost <= 0 {
		t.Fatalf("default = %+v", d)
	}
}

func TestOpsPerSecond(t *testing.T) {
	if got := opsPerSecond(100, time.Second); got != 100 {
		t.Fatalf("ops/s = %f", got)
	}
	if got := opsPerSecond(100, 0); got != 0 {
		t.Fatalf("zero duration = %f", got)
	}
}

// TestAllExperimentsRunQuick smoke-runs every registered experiment at the
// quick scale and sanity-checks the shape of a few headline results.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	cfg := QuickConfig()
	results := map[string]*Result{}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no rows")
			}
			var buf bytes.Buffer
			res.Print(&buf)
			if !strings.Contains(buf.String(), "== "+e.ID+" ") {
				t.Fatalf("output has no %s header:\n%s", e.ID, buf.String())
			}
			results[e.ID] = res
		})
	}
	// exp-avail and abl-protocols were merged into exp-trade; each half of
	// the trade keeps its smoke check under the old experiment's name.
	trade := func(t *testing.T) *Result {
		res := results["exp-trade"]
		if res == nil || len(res.Rows) != 5 {
			t.Fatal("exp-trade has no row per protocol")
		}
		return res
	}
	t.Run("exp-avail", func(t *testing.T) {
		res := trade(t)
		for _, row := range res.Rows {
			var sum float64
			for _, column := range []string{"clean", "with_threat", "rejected"} {
				v, _ := res.Cell(row.Label, column)
				sum += v
			}
			if sum != float64(cfg.Ops) {
				t.Errorf("%s: %v partitioned writes counted, want %d", row.Label, sum, cfg.Ops)
			}
		}
	})
	t.Run("abl-protocols", func(t *testing.T) {
		res := trade(t)
		for _, row := range res.Rows {
			for _, column := range []string{"setter_healthy", "getter_healthy"} {
				if v, ok := res.Cell(row.Label, column); !ok || v <= 0 {
					t.Errorf("%s: %s = %v", row.Label, column, v)
				}
			}
		}
	})
}

func TestFig21Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	res, err := runFig21(Config{Ops: 1000, Runs: 5})
	if err != nil {
		t.Fatal(err)
	}
	hand, ok := res.Cell("handcrafted", "overhead_vs_handcrafted")
	if !ok || hand != 1 {
		t.Fatalf("handcrafted overhead = %f", hand)
	}
	aspect, ok := res.Cell("aspect-interceptor", "overhead_vs_handcrafted")
	if !ok {
		t.Fatal("aspect row missing")
	}
	repoOpt, ok := res.Cell("dynrepo-opt", "overhead_vs_handcrafted")
	if !ok {
		t.Fatal("dynrepo-opt row missing")
	}
	// Shape: interceptor-encoded checks are nearly free; the optimized
	// repository costs integer multiples.
	if aspect > 2.0 {
		t.Errorf("aspect-interceptor overhead = %.2f, want ~1", aspect)
	}
	if repoOpt < aspect {
		t.Errorf("repository (%.2f) should cost more than woven checks (%.2f)", repoOpt, aspect)
	}
}

func TestFig22Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	res, err := runFig22(Config{Ops: 1000, Runs: 5})
	if err != nil {
		t.Fatal(err)
	}
	interp, ok := res.Cell("interpreted-ocl", "overhead_vs_handcrafted")
	if !ok {
		t.Fatal("interpreted row missing")
	}
	proxyRaw, ok := res.Cell("proxyrepo", "overhead_vs_handcrafted")
	if !ok {
		t.Fatal("proxyrepo row missing")
	}
	if interp < 5 {
		t.Errorf("interpreted overhead = %.2f, want the slow end", interp)
	}
	if proxyRaw < 2 {
		t.Errorf("uncached proxy repo overhead = %.2f, want clearly slow", proxyRaw)
	}
}

// TestTradeShape checks exp-trade's counts, never a rate, in thirds of the
// writes: the {n1,n2}|{n3} split sends two of every three writes to the
// majority side.
func TestTradeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	cfg := QuickConfig()
	res, err := runTrade(cfg)
	if err != nil {
		t.Fatal(err)
	}
	third := float64(cfg.Ops / 3)
	// clean, with_threat, rejected
	want := map[string][3]float64{
		"P4":                {0, 3 * third, 0},
		"primary-backup":    {2 * third, 0, third},
		"primary-partition": {2 * third, 0, third},
		"adaptive-voting":   {2 * third, third, 0},
		"quorum":            {2 * third, 0, third},
	}
	// The primary partition is never stale, so it stores no threat.
	if stored, _ := res.Cell("primary-partition", "threats_stored"); stored != 0 {
		t.Errorf("primary-partition: %v threats stored, want 0", stored)
	}
	for label, w := range want {
		cell := func(column string) float64 {
			v, ok := res.Cell(label, column)
			if !ok {
				t.Fatalf("%s: no %s cell", label, column)
			}
			return v
		}
		if got := [3]float64{cell("clean"), cell("with_threat"), cell("rejected")}; got != w {
			t.Errorf("%s: clean/with_threat/rejected = %v, want %v", label, got, w)
		}
		if stored, with := cell("threats_stored"), cell("with_threat"); stored < with {
			t.Errorf("%s: %v threats stored for %v writes accepted with a threat", label, stored, with)
		}
		if left := cell("threats_left"); left != 0 {
			t.Errorf("%s: %v threats left after reconciliation", label, left)
		}
	}
	// Both sides wrote under these two; the most-updates resolver keeps the
	// majority's state and discards the minority's third.
	for _, label := range []string{"P4", "adaptive-voting"} {
		if conflicts, _ := res.Cell(label, "conflicts"); conflicts < 1 {
			t.Errorf("%s: conflicts = %v, want >= 1", label, conflicts)
		}
		if lost, _ := res.Cell(label, "writes_lost"); lost != third {
			t.Errorf("%s: writes_lost = %v, want the minority's %v", label, lost, third)
		}
	}
}

// TestAblIntraShape checks abl-intra's stored threats: declared intra-object,
// ValueBound stays reliable on the partitioned replica and stores none;
// declared inter-object, every write stores one (full history).
func TestAblIntraShape(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	cfg := QuickConfig()
	res, err := runAblIntra(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Cell("declared intra-object", "threats_stored"); got != 0 {
		t.Errorf("intra-object threats_stored = %v, want 0", got)
	}
	if got, _ := res.Cell("declared inter-object (default)", "threats_stored"); got != float64(cfg.Ops) {
		t.Errorf("inter-object threats_stored = %v, want %d", got, cfg.Ops)
	}
}

func TestPSCShape(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	res, err := runPSC(Config{Ops: 60})
	if err != nil {
		t.Fatal(err)
	}
	plainOver, ok := res.Cell("plain tradeable constraint", "overbooked")
	if !ok {
		t.Fatal("plain row missing")
	}
	pscOver, ok := res.Cell("partition-sensitive constraint", "overbooked")
	if !ok {
		t.Fatal("psc row missing")
	}
	if plainOver <= 0 {
		t.Errorf("plain constraint overbooked = %.0f, want > 0", plainOver)
	}
	if pscOver != 0 {
		t.Errorf("partition-sensitive overbooked = %.0f, want 0", pscOver)
	}
	soldA, _ := res.Cell("partition-sensitive constraint", "sold_A")
	soldB, _ := res.Cell("partition-sensitive constraint", "sold_B")
	if soldA != 5 || soldB != 5 {
		t.Errorf("shares = %v/%v, want 5/5 of the 10 remaining tickets", soldA, soldB)
	}
}

// TestFig53Shape holds fig5.3's store-write counts, the mechanism behind the
// paper's "degraded writes can be faster" (§5.1): a healthy write on three
// nodes is one store write at each replica, three, and a degraded write on
// the two nodes of a partition under KeepHistory one at each of the two, its
// history entry in its commit's write; that entry was a write of its own,
// three in all. The single node without DeDiSys writes its entity once.
func TestFig53Shape(t *testing.T) {
	res, err := runFig53(Config{Ops: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		row    string
		writes float64
	}{
		{"No DeDiSys (1 node)", 1},
		{"DeDiSys healthy (3 nodes)", 3},
		{"DeDiSys degraded (2 nodes in partition)", 2},
	} {
		if got, ok := res.Cell(want.row, "setter_writes"); !ok || got != want.writes {
			t.Errorf("%s: %v store writes per setter, want %v", want.row, got, want.writes)
		}
	}
}

// TestFig56Shape holds fig5.6's counts at the §5.2 setup (1000 degraded
// operations on 200 objects): identical-once stores 200 threat records and
// full history 1000, and the constraint phase pays one store write per
// removed record at the reconciling node and one at its peer, which stores
// the announced removals in one write: 201 and 1001, so full history costs
// 5x identical-once (one write per record at both nodes made them 400 and
// 2000, three writes per record 1200 and 6000).
func TestFig56Shape(t *testing.T) {
	res, err := runFig56(Config{Ops: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		policy          string
		records, writes float64
	}{
		{"identical-once", 200, 201},
		{"full-history", 1000, 1001},
	} {
		records, _ := res.Cell(want.policy, "threat_records")
		writes, _ := res.Cell(want.policy, "constraint_writes")
		if records != want.records || writes != want.writes {
			t.Errorf("%s: %v threat records, %v constraint writes; want %v, %v", want.policy, records, writes, want.records, want.writes)
		}
	}
}

func TestFig58Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	res, err := runFig58(Config{Ops: 100, StoreCost: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	// After the first iteration, identical-once should clearly outpace full
	// history (reads instead of multi-record writes).
	fullLater, _ := res.Cell("iteration 3", "full_history")
	onceLater, _ := res.Cell("iteration 3", "identical_once")
	if onceLater <= fullLater {
		t.Errorf("identical-once (%.1f) should beat full history (%.1f) in later iterations", onceLater, fullLater)
	}
}

func TestDetectShape(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	res, err := runDetect(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"fixed-timeout", "phi-accrual"} {
		d, ok := res.Cell(policy, "detect-ms")
		if !ok {
			t.Fatalf("missing detect-ms for %s", policy)
		}
		// 5ms heartbeat interval: detection can never be faster than one
		// period, and the oracle's instant zero would be a regression.
		if d < 5 {
			t.Errorf("%s: detection latency %.2fms, want >= one 5ms interval", policy, d)
		}
		if r, ok := res.Cell(policy, "rejoin-ms"); !ok || r <= 0 {
			t.Errorf("%s: rejoin latency %.2fms, want > 0", policy, r)
		}
		if hb, ok := res.Cell(policy, "heartbeats"); !ok || hb <= 0 {
			t.Errorf("%s: no heartbeats recorded", policy)
		}
	}
}

// TestSharedObserverKeepsRowsApart runs abl-repocache with and without a
// shared observer (what -metrics and -trace install): every cluster of the
// run then counts into one registry, and a row must still read its own
// case's searches, not every earlier case's too.
func TestSharedObserverKeepsRowsApart(t *testing.T) {
	shared := QuickConfig()
	shared.Obs = obs.New()
	for _, cfg := range []Config{QuickConfig(), shared} {
		res, err := runAblRepoCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range []string{"optimized (cached)", "linear search"} {
			if got, _ := res.Cell(row, "repo_searches"); got != 360 {
				t.Errorf("shared observer %t: %s repo_searches = %v, want 360", cfg.Obs != nil, row, got)
			}
		}
	}
}
