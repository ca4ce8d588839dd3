// Package chaos generates seeded fault schedules, executes them against a
// cluster, and checks dependability invariants after every quiescent point.
// It promotes the ad-hoc convergence checks that grew inside the node tests
// into a reusable harness: a violating run is fully described by its seed —
// re-generating the schedule from the seed reproduces the exact fault
// sequence, so failures printed by the soak test replay deterministically.
//
// A schedule is pure data. Each round injects one fault (partition, full
// split, crash, random message loss, per-link latency, or heartbeat skew),
// fires a burst of writes (and optionally naming operations), then ends with
// a quiesce step: all faults are lifted, the configured repair mechanism
// runs (pairwise reconciliation or anti-entropy gossip), and the invariant
// suite is evaluated.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"dedisys/internal/object"
)

// Kind enumerates schedule step kinds.
type Kind string

const (
	// KindPartition splits the cluster two ways at index Cut.
	KindPartition Kind = "partition"
	// KindSplit isolates every node in its own partition.
	KindSplit Kind = "split"
	// KindCrash crashes node index Node until the next quiesce.
	KindCrash Kind = "crash"
	// KindDrop installs random message loss at probability Rate.
	KindDrop Kind = "drop"
	// KindLatency injects Micros of extra latency on every link.
	KindLatency Kind = "latency"
	// KindSkew injects Micros of latency on failure-detector heartbeats
	// only — the simulated analogue of detector-visible clock skew. It is a
	// no-op on clusters without detectors but keeps generated schedules
	// uniform across cluster flavours.
	KindSkew Kind = "skew"
	// KindWrite invokes SetValue(Value) on object index Object from node
	// index Node. Rejections under partitions are expected and recorded as
	// attempted (maybe-committed) rather than committed writes.
	KindWrite Kind = "write"
	// KindBind binds Name to object index Object on node index Node.
	KindBind Kind = "bind"
	// KindUnbind removes Name on node index Node, creating a naming
	// tombstone that must merge deterministically.
	KindUnbind Kind = "unbind"
	// KindQuiesce lifts every fault, runs repair, and checks invariants.
	KindQuiesce Kind = "quiesce"
)

// Step is one schedule entry. Fields are used per Kind; unused fields are
// zero.
type Step struct {
	Kind   Kind
	Cut    int     // KindPartition: boundary index
	Node   int     // KindCrash/KindWrite/KindBind/KindUnbind: node index
	Object int     // KindWrite/KindBind: object index
	Value  int64   // KindWrite: value written
	Rate   float64 // KindDrop: loss probability
	Micros int     // KindLatency/KindSkew: injected latency in microseconds
	Name   string  // KindBind/KindUnbind: binding name
}

// Schedule is a complete, replayable fault schedule.
type Schedule struct {
	Seed    int64
	Nodes   int
	Objects int
	Steps   []Step
}

// GenConfig parameterises Generate. Zero fields take defaults.
type GenConfig struct {
	Seed   int64
	Nodes  int  // default 3
	Rounds int  // default 8 quiesce rounds
	Naming bool // interleave bind/unbind operations
}

// A schedule's objects, and the writes of each of its rounds.
const (
	objects        = 5
	writesPerRound = 10
)

func (g *GenConfig) normalize() {
	if g.Nodes <= 0 {
		g.Nodes = 3
	}
	if g.Rounds <= 0 {
		g.Rounds = 8
	}
}

// Generate derives a schedule deterministically from cfg.Seed: the same
// config always yields an identical schedule, which is what makes soak
// failures replayable from the printed seed alone.
func Generate(cfg GenConfig) Schedule {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := Schedule{Seed: cfg.Seed, Nodes: cfg.Nodes, Objects: objects}
	names := []string{"svc/a", "svc/b", "svc/c"}
	for round := 0; round < cfg.Rounds; round++ {
		switch rng.Intn(6) {
		case 0:
			s.Steps = append(s.Steps, Step{Kind: KindPartition, Cut: 1 + rng.Intn(cfg.Nodes-1)})
		case 1:
			s.Steps = append(s.Steps, Step{Kind: KindSplit})
		case 2:
			s.Steps = append(s.Steps, Step{Kind: KindCrash, Node: rng.Intn(cfg.Nodes)})
		case 3:
			s.Steps = append(s.Steps, Step{Kind: KindDrop, Rate: 0.05 + 0.25*rng.Float64()})
		case 4:
			s.Steps = append(s.Steps, Step{Kind: KindLatency, Micros: 50 + rng.Intn(200)})
		case 5:
			s.Steps = append(s.Steps, Step{Kind: KindSkew, Micros: 100 + rng.Intn(400)})
		}
		// A crashed or dropping fabric still sees the full write burst: the
		// executor tolerates rejections and records them as maybe-committed.
		for op := 0; op < writesPerRound; op++ {
			s.Steps = append(s.Steps, Step{
				Kind:   KindWrite,
				Node:   rng.Intn(cfg.Nodes),
				Object: rng.Intn(objects),
				Value:  int64(rng.Intn(100000)),
			})
		}
		if cfg.Naming && rng.Intn(2) == 0 {
			name := names[rng.Intn(len(names))]
			if rng.Intn(3) == 0 {
				s.Steps = append(s.Steps, Step{Kind: KindUnbind, Node: rng.Intn(cfg.Nodes), Name: name})
			} else {
				s.Steps = append(s.Steps, Step{Kind: KindBind, Node: rng.Intn(cfg.Nodes), Object: rng.Intn(objects), Name: name})
			}
		}
		s.Steps = append(s.Steps, Step{Kind: KindQuiesce})
	}
	return s
}

// ObjectID maps an object index to its schedule-wide ID.
func ObjectID(i int) object.ID { return object.ID(fmt.Sprintf("o%d", i)) }

// String renders the schedule as replayable text — printed verbatim by the
// soak test when a seed violates an invariant.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d nodes=%d objects=%d\n", s.Seed, s.Nodes, s.Objects)
	for i, st := range s.Steps {
		fmt.Fprintf(&b, "  %3d: %s", i, st.Kind)
		switch st.Kind {
		case KindPartition:
			fmt.Fprintf(&b, " cut=%d", st.Cut)
		case KindCrash:
			fmt.Fprintf(&b, " node=%d", st.Node)
		case KindDrop:
			fmt.Fprintf(&b, " rate=%.2f", st.Rate)
		case KindLatency, KindSkew:
			fmt.Fprintf(&b, " micros=%d", st.Micros)
		case KindWrite:
			fmt.Fprintf(&b, " node=%d %s=%d", st.Node, ObjectID(st.Object), st.Value)
		case KindBind:
			fmt.Fprintf(&b, " node=%d %s->%s", st.Node, st.Name, ObjectID(st.Object))
		case KindUnbind:
			fmt.Fprintf(&b, " node=%d %s", st.Node, st.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
