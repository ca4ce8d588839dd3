package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/detect"
	"dedisys/internal/gossip"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/reconcile"
	"dedisys/internal/transport"
)

// Mode selects the repair mechanism run at every quiesce step.
type Mode int

const (
	// ModeReconcile repairs with pairwise reconciliation (reconcile.Run, two
	// passes from different drivers) and checks the threat invariant.
	ModeReconcile Mode = iota
	// ModeGossip repairs with anti-entropy rounds only — reconcile.Run is
	// never called — and records how many rounds convergence took. The
	// cluster runs with CCM disabled (P4 everywhere) so both partition
	// sides stay writable and genuinely diverge.
	ModeGossip
)

func (m Mode) String() string {
	if m == ModeGossip {
		return "gossip"
	}
	return "reconcile"
}

// Options configures Execute. Zero value = ModeReconcile.
type Options struct {
	Mode Mode
}

// maxGossipRounds is the gossip budget per quiesce (ModeGossip).
const maxGossipRounds = 24

// Result is the outcome of executing one schedule.
type Result struct {
	Seed         int64
	Schedule     Schedule
	Violations   []string // empty means every invariant held at every quiesce
	GossipRounds int      // total anti-entropy rounds spent (ModeGossip)
}

// Schema returns the single-register test schema ("Reg": SetValue/Value)
// the executor drives writes through. Exported so external harnesses (the
// node chaos tests) build compatible clusters.
func Schema() *object.Schema {
	s := object.NewSchema("Reg")
	s.Define("SetValue", func(e *object.Entity, args []any) (any, error) {
		e.Set("value", args[0])
		return nil, nil
	})
	s.Define("Value", func(e *object.Entity, args []any) (any, error) {
		return e.GetInt("value"), nil
	})
	return s
}

// TradeableConstraint returns an always-satisfiable tradeable constraint on
// Reg.SetValue: it accepts any threat in degraded mode and clears on every
// reconciliation, so the zero-threats invariant must hold after repair.
func TradeableConstraint() constraint.Configured {
	return constraint.Configured{
		Meta: constraint.Meta{
			Name: "NonNegative", Type: constraint.HardInvariant,
			Priority: constraint.Tradeable, MinDegree: constraint.Uncheckable,
			NeedsContext: true, ContextClass: "Reg",
			Affected: []constraint.AffectedMethod{
				{Class: "Reg", Method: "SetValue", Prep: constraint.CalledObjectIsContext{}},
			},
		},
		Impl: constraint.Func(func(ctx constraint.Context) (bool, error) {
			return ctx.ContextObject().GetInt("value") >= 0, nil
		}),
	}
}

// history tracks writes between quiesce points for the durability invariant.
type history struct {
	baseline  map[object.ID]int64          // converged value at the last quiesce
	committed map[object.ID]map[int64]bool // Invoke returned nil this round
	attempted map[object.ID]map[int64]bool // Invoke errored (maybe partially applied)
	vvTotal   map[object.ID]int64          // converged VV total at the last quiesce
}

func newHistory(objects int) *history {
	h := &history{
		baseline:  make(map[object.ID]int64),
		committed: make(map[object.ID]map[int64]bool),
		attempted: make(map[object.ID]map[int64]bool),
		vvTotal:   make(map[object.ID]int64),
	}
	for i := 0; i < objects; i++ {
		h.baseline[ObjectID(i)] = 0
	}
	return h
}

func (h *history) record(id object.ID, v int64, committed bool) {
	m := h.attempted
	if committed {
		m = h.committed
	}
	if m[id] == nil {
		m[id] = make(map[int64]bool)
	}
	m[id][v] = true
}

func (h *history) reset() {
	h.committed = make(map[object.ID]map[int64]bool)
	h.attempted = make(map[object.ID]map[int64]bool)
}

// Execute runs a schedule against a fresh cluster and returns every
// invariant violation found. It never calls t.Fatal — callers decide how to
// report, and the soak test prints the schedule text for replay.
func Execute(sched Schedule, opts Options) (Result, error) {
	res := Result{Seed: sched.Seed, Schedule: sched}

	c, err := node.NewCluster(sched.Nodes, nil, func(o *node.Options) {
		o.RepoCache = true
		if opts.Mode == ModeGossip {
			o.DisableCCM = true
			o.Gossip = &gossip.Config{Manual: true, Interval: 2 * time.Millisecond, Fanout: 2}
		}
	})
	if err != nil {
		return res, fmt.Errorf("chaos: cluster: %w", err)
	}
	defer c.Stop()
	for _, n := range c.Nodes {
		n.RegisterSchema(Schema())
		if opts.Mode == ModeReconcile {
			if err := n.DeployConstraints([]constraint.Configured{TradeableConstraint()}); err != nil {
				return res, fmt.Errorf("chaos: deploy constraints: %w", err)
			}
		}
	}
	var ids []object.ID
	for i := 0; i < sched.Objects; i++ {
		id := ObjectID(i)
		home := c.Nodes[i%sched.Nodes]
		if err := home.Create("Reg", id, object.State{"value": int64(0)}, c.AllReplicas(home.ID)); err != nil {
			return res, fmt.Errorf("chaos: create %s: %w", id, err)
		}
		ids = append(ids, id)
	}

	hist := newHistory(sched.Objects)
	crashed := make(map[transport.NodeID]bool)
	ctx := context.Background()
	violate := func(step int, format string, args ...any) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("step %d: %s", step, fmt.Sprintf(format, args...)))
	}

	for i, st := range sched.Steps {
		switch st.Kind {
		case KindPartition:
			all := c.IDs()
			c.Partition(all[:st.Cut], all[st.Cut:])
		case KindSplit:
			var groups [][]transport.NodeID
			for _, id := range c.IDs() {
				groups = append(groups, []transport.NodeID{id})
			}
			c.Partition(groups...)
		case KindCrash:
			id := c.IDs()[st.Node%sched.Nodes]
			c.Net.Crash(id)
			crashed[id] = true
		case KindDrop:
			// Seeded per-step so the loss pattern replays with the schedule;
			// the mutex serialises the rng across concurrent sends.
			rng := rand.New(rand.NewSource(sched.Seed*1009 + int64(i)))
			var mu sync.Mutex
			rate := st.Rate
			c.Net.SetDrop(func(from, to transport.NodeID, kind string) bool {
				mu.Lock()
				defer mu.Unlock()
				return rng.Float64() < rate
			})
		case KindLatency:
			d := time.Duration(st.Micros) * time.Microsecond
			c.Net.SetLatency(func(from, to transport.NodeID, kind string) time.Duration {
				return d
			})
		case KindSkew:
			d := time.Duration(st.Micros) * time.Microsecond
			c.Net.SetLatency(func(from, to transport.NodeID, kind string) time.Duration {
				if kind == detect.MsgHeartbeat {
					return d
				}
				return 0
			})
		case KindWrite:
			n := c.Nodes[st.Node%sched.Nodes]
			id := ids[st.Object%sched.Objects]
			_, err := n.Invoke(id, "SetValue", st.Value)
			hist.record(id, st.Value, err == nil)
		case KindBind:
			c.Nodes[st.Node%sched.Nodes].Naming.Rebind(st.Name, ids[st.Object%sched.Objects])
		case KindUnbind:
			// Unknown names are fine: the op only matters when it lands on a
			// live binding, which is exactly the tombstone-merge case.
			_ = c.Nodes[st.Node%sched.Nodes].Naming.Unbind(st.Name)
		case KindQuiesce:
			// Lift every fault.
			c.Net.SetDrop(nil)
			c.Net.SetLatency(nil)
			for id := range crashed {
				c.Net.Recover(id)
				delete(crashed, id)
			}
			c.Heal()

			// Repair.
			switch opts.Mode {
			case ModeReconcile:
				if _, err := reconcile.Run(ctx, c.Node(0), c.IDs()[1:], reconcile.Handlers{}); err != nil {
					return res, fmt.Errorf("chaos: step %d reconcile: %w", i, err)
				}
				if sched.Nodes > 1 {
					// A second pass from another driver mops up state only it
					// can see (threats stored elsewhere, late tombstones).
					var peers []transport.NodeID
					for _, id := range c.IDs() {
						if id != c.Node(1).ID {
							peers = append(peers, id)
						}
					}
					if _, err := reconcile.Run(ctx, c.Node(1), peers, reconcile.Handlers{}); err != nil {
						return res, fmt.Errorf("chaos: step %d reconcile 2: %w", i, err)
					}
				}
			case ModeGossip:
				converged := false
				for r := 0; r < maxGossipRounds; r++ {
					for _, n := range c.Nodes {
						if _, err := n.Gossip.RunRound(ctx); err != nil {
							return res, fmt.Errorf("chaos: step %d gossip round: %w", i, err)
						}
					}
					res.GossipRounds++
					if len(CheckConverged(c, ids)) == 0 {
						converged = true
						break
					}
				}
				if !converged {
					violate(i, "gossip did not converge within %d rounds", maxGossipRounds)
				}
			}
			// Naming settles by pulling from every peer twice: the second
			// pass makes the merge independent of which node synced first.
			for pass := 0; pass < 2; pass++ {
				for _, n := range c.Nodes {
					var peers []transport.NodeID
					for _, id := range c.IDs() {
						if id != n.ID {
							peers = append(peers, id)
						}
					}
					for _, sr := range n.Naming.SyncAll(ctx, peers) {
						if sr.Err != nil {
							return res, fmt.Errorf("chaos: step %d naming sync: %w", i, sr.Err)
						}
					}
				}
			}

			// Invariants.
			for _, v := range CheckConverged(c, ids) {
				violate(i, "%s", v)
			}
			for _, v := range checkDurability(c, ids, hist) {
				violate(i, "%s", v)
			}
			if opts.Mode == ModeReconcile {
				for _, v := range CheckNoThreats(c) {
					violate(i, "%s", v)
				}
			}
			for _, v := range CheckNamingAgreement(c) {
				violate(i, "%s", v)
			}

			// Re-baseline for the next round regardless of violations: later
			// rounds then report their own divergence, not echoes.
			for _, id := range ids {
				if e, err := c.Node(0).Registry.Get(id); err == nil {
					hist.baseline[id] = e.GetInt("value")
				}
				if vv, err := c.Node(0).Repl.VersionVector(id); err == nil {
					hist.vvTotal[id] = vv.Total()
				}
			}
			hist.reset()
		}
	}
	return res, nil
}

// CheckConverged verifies that every replica of every object holds the same
// snapshot and version vector (nodes outside an object's replica set are
// skipped under sharded placement). A missing object is reported as lost.
func CheckConverged(c *node.Cluster, ids []object.ID) []string {
	var out []string
	for _, id := range ids {
		var refState object.State
		var refVV any
		first := true
		for _, n := range c.Nodes {
			if c.Ring != nil && !n.Repl.HasLocalReplica(id) {
				continue
			}
			e, err := n.Registry.Get(id)
			if err != nil {
				out = append(out, fmt.Sprintf("node %s lost %s: %v", n.ID, id, err))
				continue
			}
			vv, err := n.Repl.VersionVector(id)
			if err != nil {
				out = append(out, fmt.Sprintf("node %s has no vv for %s: %v", n.ID, id, err))
				continue
			}
			if first {
				refState, refVV, first = e.Snapshot(), vv, false
				continue
			}
			if !reflect.DeepEqual(e.Snapshot(), refState) {
				out = append(out, fmt.Sprintf("%s state diverged on %s: %v vs %v", id, n.ID, e.Snapshot(), refState))
			}
			if !reflect.DeepEqual(vv, refVV) {
				out = append(out, fmt.Sprintf("%s vv diverged on %s: %v vs %v", id, n.ID, vv, refVV))
			}
		}
	}
	return out
}

// checkDurability verifies no committed write is lost: the converged value
// of every object must be its last baseline or a value written this round,
// and when at least one write committed cleanly (and none failed midway,
// which can leave partially-applied records that legally win resolution)
// the baseline alone cannot win — some committed value must survive.
// Version-vector totals must never regress, and must strictly grow when a
// write committed.
func checkDurability(c *node.Cluster, ids []object.ID, h *history) []string {
	var out []string
	for _, id := range ids {
		e, err := c.Node(0).Registry.Get(id)
		if err != nil {
			continue // already reported as lost by CheckConverged
		}
		v := e.GetInt("value")
		committed, attempted := h.committed[id], h.attempted[id]
		if v != h.baseline[id] && !committed[v] && !attempted[v] {
			out = append(out, fmt.Sprintf("%s holds fabricated value %d (baseline %d)", id, v, h.baseline[id]))
		}
		if len(committed) > 0 && len(attempted) == 0 && !committed[v] {
			out = append(out, fmt.Sprintf("%s lost all committed writes: holds %d, committed %v", id, v, keys(committed)))
		}
		vv, err := c.Node(0).Repl.VersionVector(id)
		if err != nil {
			continue
		}
		if vv.Total() < h.vvTotal[id] {
			out = append(out, fmt.Sprintf("%s vv total regressed: %d -> %d", id, h.vvTotal[id], vv.Total()))
		}
		if len(committed) > 0 && vv.Total() == h.vvTotal[id] {
			out = append(out, fmt.Sprintf("%s committed %d writes but vv total stayed %d", id, len(committed), vv.Total()))
		}
	}
	return out
}

func keys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// CheckNoThreats verifies no accepted threat survived repair — with only
// tradeable, always-satisfiable constraints deployed, reconciliation must
// clear every threat it revalidates.
func CheckNoThreats(c *node.Cluster) []string {
	var out []string
	for _, n := range c.Nodes {
		if n.Threats.Len() != 0 {
			out = append(out, fmt.Sprintf("node %s kept %d threats after repair", n.ID, n.Threats.Len()))
		}
	}
	return out
}

// CheckNamingAgreement verifies the naming tombstone merge was
// deterministic: after syncing, every node resolves the same name table.
func CheckNamingAgreement(c *node.Cluster) []string {
	var out []string
	ref := c.Node(0).Naming.Names()
	for _, n := range c.Nodes[1:] {
		if got := n.Naming.Names(); !reflect.DeepEqual(got, ref) {
			out = append(out, fmt.Sprintf("naming diverged on %s: %v vs %v", n.ID, got, ref))
			continue
		}
	}
	for _, name := range ref {
		want, err := c.Node(0).Naming.Lookup(name)
		if err != nil {
			out = append(out, fmt.Sprintf("naming lookup %s on %s: %v", name, c.Node(0).ID, err))
			continue
		}
		for _, n := range c.Nodes[1:] {
			got, err := n.Naming.Lookup(name)
			if err != nil {
				out = append(out, fmt.Sprintf("naming lookup %s on %s: %v", name, n.ID, err))
				continue
			}
			if got != want {
				out = append(out, fmt.Sprintf("naming binding %s diverged on %s: %s vs %s", name, n.ID, got, want))
			}
		}
	}
	return out
}
