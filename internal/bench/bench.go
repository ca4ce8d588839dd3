// Package bench is the experiment harness regenerating every table and
// figure of the dissertation's evaluation (Chapters 2 and 5). Each
// experiment produces a Result table whose rows mirror the paper's series;
// absolute numbers depend on the host, but the shapes — who wins, by what
// factor, where the crossovers fall — are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dedisys/internal/obs"
)

// Config tunes experiment scale and the simulated hardware costs.
type Config struct {
	// Ops is the base operation count per measured case. The dissertation
	// uses 1000; tests use less.
	Ops int
	// Runs repeats the Chapter 2 scenario this many times per measurement.
	Runs int
	// NetCost is the simulated per-message network cost (the 100 Mbit LAN).
	NetCost time.Duration
	// StoreCost is the simulated per-write database cost (MySQL).
	StoreCost time.Duration
	// Entities is the object population for the Chapter 5 workloads.
	Entities int
	// HeartbeatInterval is the failure-detector heartbeat period for the
	// detector experiment (0 uses the detector default).
	HeartbeatInterval time.Duration
	// SuspectTimeout is the fixed-timeout silence tolerance for the detector
	// experiment (0 uses the detector default of 5 intervals).
	SuspectTimeout time.Duration
	// Protocol selects the replica-control protocol for every cluster the
	// experiments build ("" keeps the P4 default; experiments that compare
	// protocols override it per case). See replication.ProtocolByName.
	Protocol string
	// QuorumThreshold tunes the quorum protocol's commit threshold
	// (-quorum-threshold; 0 = strict majority).
	QuorumThreshold int
	// Groups sets the replica-group count for the sharded cases of the
	// placement experiment, exp-shard (-groups; 0 runs its defaults, G=2
	// and G=4). The other experiments keep full replication: their
	// workloads drive explicit transactions from one pinned node, which
	// must be the coordinator of every object it writes.
	Groups int
	// ReplicationFactor is the number of nodes replicating each group in
	// exp-shard (-replication-factor; 0 = its default of 3).
	ReplicationFactor int
	// GossipFanout is the peers-per-round for the anti-entropy experiment,
	// exp-gossip (-gossip-fanout; 0 = the gossip default of 2).
	GossipFanout int
	// Obs, when set, is shared by every cluster the experiments build so one
	// registry/trace dump covers the whole run (--metrics/--trace).
	Obs *obs.Observer
}

// DefaultConfig approximates the dissertation's scale.
func DefaultConfig() Config {
	return Config{
		Ops:       1000,
		Runs:      20,
		NetCost:   120 * time.Microsecond,
		StoreCost: 80 * time.Microsecond,
		Entities:  1000,
	}
}

// QuickConfig is a fast configuration for tests and smoke runs.
func QuickConfig() Config {
	return Config{Ops: 60, Runs: 2, NetCost: 0, StoreCost: 0, Entities: 60}
}

// normalize fills zero fields from the quick defaults.
func (c Config) normalize() Config {
	if c.Ops <= 0 {
		c.Ops = 60
	}
	if c.Runs <= 0 {
		c.Runs = 1
	}
	if c.Entities <= 0 {
		c.Entities = c.Ops
	}
	return c
}

// Row is one line of a result table.
type Row struct {
	Label string
	Cells []float64
}

// Result is one regenerated table/figure.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// AddRow appends a row.
func (r *Result) AddRow(label string, cells ...float64) {
	r.Rows = append(r.Rows, Row{Label: label, Cells: cells})
}

// AddNote appends a free-text note shown under the table.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Cell returns the named cell, for assertions in tests.
func (r *Result) Cell(rowLabel, column string) (float64, bool) {
	col := -1
	for i, c := range r.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, row := range r.Rows {
		if row.Label == rowLabel && col < len(row.Cells) {
			return row.Cells[col], true
		}
	}
	return 0, false
}

// WriteCSV renders the result as CSV (one header row, one row per case).
func (r *Result) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "case")
	for _, c := range r.Columns {
		fmt.Fprintf(w, ",%s", c)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%q", row.Label)
		for _, v := range row.Cells {
			fmt.Fprintf(w, ",%g", v)
		}
		fmt.Fprintln(w)
	}
}

// Print renders the result as an aligned text table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	labelWidth := len("case")
	for _, row := range r.Rows {
		if len(row.Label) > labelWidth {
			labelWidth = len(row.Label)
		}
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
		if widths[i] < 10 {
			widths[i] = 10
		}
	}
	fmt.Fprintf(w, "%-*s", labelWidth+2, "case")
	for i, c := range r.Columns {
		fmt.Fprintf(w, "  %*s", widths[i], c)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-*s", labelWidth+2, row.Label)
		for i, v := range row.Cells {
			width := 10
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(w, "  %*s", width, formatCell(v))
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func formatCell(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e7:
		return fmt.Sprintf("%.0f", v)
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Result, error)
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig2.1", Title: "Fastest constraint validation approaches (overhead vs handcrafted)", Run: runFig21},
		{ID: "fig2.2", Title: "Slowest constraint validation approaches (overhead vs handcrafted)", Run: runFig22},
		{ID: "fig2.4", Title: "Search overhead (R1+R2+R3+R4)/R1, optimized vs per-invocation search", Run: runFig24},
		{ID: "fig2.5", Title: "Interception overhead (R1+R2)/R1", Run: runFig25},
		{ID: "fig2.6", Title: "Interception + parameter extraction (R1+R2+R3)/R1", Run: runFig26},
		{ID: "tab-lookup", Title: "Optimized repository lookup time vs repository size (§2.3.2)", Run: runTabLookup},
		{ID: "fig5.1", Title: "Overhead of explicit constraint consistency management (single node)", Run: runFig51},
		{ID: "fig5.2", Title: "No DeDiSys vs DeDiSys, healthy and degraded with equal node count", Run: runFig52},
		{ID: "fig5.3", Title: "No DeDiSys vs DeDiSys, 3 nodes healthy / 2 nodes degraded", Run: runFig53},
		{ID: "fig5.4", Title: "Replication effects on different operations (1–4 nodes)", Run: runFig54},
		{ID: "fig5.6", Title: "Reconciliation time: replica vs constraint phase, both threat policies", Run: runFig56},
		{ID: "fig5.8", Title: "Improvement through reduced consistency threat history", Run: runFig58},
		{ID: "exp-async", Title: "Asynchronous constraints vs soft constraints in degraded mode (§5.5.3)", Run: runAsync},
		{ID: "exp-psc", Title: "Partition-sensitive ticket constraint (§5.5.2)", Run: runPSC},
		{ID: "exp-trade", Title: "Availability under partition, paid in threats and repaid at reconciliation, per protocol", Run: runTrade},
		{ID: "exp-detect", Title: "Failure detection and rejoin latency by suspicion policy", Run: runDetect},
		{ID: "abl-intra", Title: "Ablation: intra-object constraint classification (§3.1)", Run: runAblIntra},
		{ID: "abl-repocache", Title: "Ablation: constraint repository cache in the middleware", Run: runAblRepoCache},
		{ID: "exp-batch", Title: "Commit fan-out: batched vs per-object propagation (K dirty objects)", Run: runCommitFanOut},
		{ID: "exp-quorum", Title: "Quorum commit tail latency: threshold vs full round under per-link jitter", Run: runQuorumTail},
		{ID: "exp-shard", Title: "Sharded placement: per-node replica footprint and commit fan-out vs full replication", Run: runShard},
		{ID: "exp-wire", Title: "Real-wire backend: commit latency over unix sockets vs the simulated hop", Run: runWire},
		{ID: "exp-gossip", Title: "Anti-entropy gossip vs heal reconciliation: rounds and bytes to converge a heal storm", Run: runGossip},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	var known []string
	for _, e := range Registry() {
		known = append(known, e.ID)
	}
	sort.Strings(known)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
}

// opsPerSecond converts a duration for n operations into ops/s.
func opsPerSecond(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
