// Package placement shards the object space across replica groups: a
// consistent-hash ring with virtual nodes maps every object.ID to one of G
// replica groups, and every group to an ordered replica set of R nodes. The
// rest of the middleware stays full-replication by default; a node built
// with Options.Groups > 0 consults the ring instead of the full view when it
// derives replication.Info, ships commit batches, or decides degraded-mode
// questions (which then become group-local).
//
// The scheme is two-level, the fixed-partition variant of Dynamo-style
// rings: objects hash onto groups by modulo (perfectly balanced and O(1),
// so the placement-balance gate holds by construction), while group anchors
// hash onto a virtual-node ring and walk it clockwise to collect their R
// distinct replica nodes. Node joins or removals therefore move only the
// groups whose preference walk crossed the affected virtual points —
// roughly an R/N fraction — instead of reshuffling every object.
//
// With Groups=1 and ReplicationFactor 0 (or >= N) every group's replica set
// is the full node list, reproducing the seed's full-replication behaviour
// exactly; that configuration is what Options.Groups = 0 short-circuits to
// without building a ring at all.
package placement

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// virtualNodes is the number of ring points per node. 64 points keep the
// group→node assignment well mixed at single-digit cluster sizes without
// noticeable build cost.
const virtualNodes = 64

// Config sizes a placement ring.
type Config struct {
	// Groups is the number of replica groups the object space is split
	// into. Must be >= 1.
	Groups int
	// ReplicationFactor is the number of nodes replicating each group;
	// 0 or anything >= the node count places every group on all nodes
	// (full replication within the group structure).
	ReplicationFactor int
}

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node transport.NodeID
}

// Ring is an immutable placement: build it once from the deployed node
// list and share it across the cluster. All methods are safe for
// concurrent use.
type Ring struct {
	cfg    Config
	nodes  []transport.NodeID   // sorted deployment universe
	points []point              // virtual nodes, sorted by hash
	groups [][]transport.NodeID // per-group ordered replica preference list
}

// New builds a placement ring over the given nodes. The node list is
// deduplicated and sorted, so every node that builds a ring from the same
// deployment and Config derives the identical placement.
func New(nodes []transport.NodeID, cfg Config) (*Ring, error) {
	if cfg.Groups < 1 {
		return nil, fmt.Errorf("placement: Groups must be >= 1, got %d", cfg.Groups)
	}
	if cfg.ReplicationFactor < 0 {
		return nil, fmt.Errorf("placement: ReplicationFactor must be >= 0, got %d", cfg.ReplicationFactor)
	}
	uniq := make([]transport.NodeID, 0, len(nodes))
	seen := make(map[transport.NodeID]struct{}, len(nodes))
	for _, n := range nodes {
		if n == "" {
			continue
		}
		if _, dup := seen[n]; dup {
			continue
		}
		seen[n] = struct{}{}
		uniq = append(uniq, n)
	}
	if len(uniq) == 0 {
		return nil, errors.New("placement: no nodes")
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	if cfg.ReplicationFactor == 0 || cfg.ReplicationFactor > len(uniq) {
		cfg.ReplicationFactor = len(uniq)
	}
	r := &Ring{cfg: cfg, nodes: uniq}
	r.points = make([]point, 0, len(uniq)*virtualNodes)
	for _, n := range uniq {
		for i := 0; i < virtualNodes; i++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	// Ties between virtual points break by node then index position, so the
	// walk order is deterministic even under hash collisions.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	r.groups = make([][]transport.NodeID, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		r.groups[g] = r.walk(hash64(fmt.Sprintf("group/%d", g)))
	}
	return r, nil
}

// walk collects the first ReplicationFactor distinct nodes clockwise from
// the given ring position: the group's ordered replica preference list
// (primary first).
func (r *Ring) walk(from uint64) []transport.NodeID {
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= from })
	out := make([]transport.NodeID, 0, r.cfg.ReplicationFactor)
	taken := make(map[transport.NodeID]struct{}, r.cfg.ReplicationFactor)
	for i := 0; i < len(r.points) && len(out) < r.cfg.ReplicationFactor; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := taken[p.node]; dup {
			continue
		}
		taken[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// Groups returns the configured group count.
func (r *Ring) Groups() int { return r.cfg.Groups }

// ReplicationFactor returns the effective per-group replica count (after
// clamping to the node count).
func (r *Ring) ReplicationFactor() int { return r.cfg.ReplicationFactor }

// Nodes returns the sorted node universe the ring was built over.
func (r *Ring) Nodes() []transport.NodeID {
	return append([]transport.NodeID(nil), r.nodes...)
}

// GroupOf maps an object to its replica group.
func (r *Ring) GroupOf(id object.ID) int {
	return int(hash64(string(id)) % uint64(r.cfg.Groups))
}

// GroupReplicas returns the ordered replica preference list of a group
// (primary first). Groups outside [0, Groups) return nil.
func (r *Ring) GroupReplicas(g int) []transport.NodeID {
	if g < 0 || g >= len(r.groups) {
		return nil
	}
	return append([]transport.NodeID(nil), r.groups[g]...)
}

// Place resolves an object to its group and ordered replica set in one
// call.
func (r *Ring) Place(id object.ID) (group int, replicas []transport.NodeID) {
	g := r.GroupOf(id)
	return g, r.GroupReplicas(g)
}

// MemberGroups returns the groups whose replica set contains the node,
// ascending.
func (r *Ring) MemberGroups(n transport.NodeID) []int {
	var out []int
	for g, reps := range r.groups {
		for _, rep := range reps {
			if rep == n {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// Describe renders the group→replica assignment, one group per line, for
// the script engine's 'placement' command and debugging.
func (r *Ring) Describe() string {
	var b strings.Builder
	for g, reps := range r.groups {
		fmt.Fprintf(&b, "group %d:", g)
		for _, rep := range reps {
			fmt.Fprintf(&b, " %s", rep)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// hash64 is the ring's hash function: FNV-1a (stable across processes)
// followed by a 64-bit mixing finalizer. Raw FNV-1a barely avalanches on the
// short, similar strings hashed here ("n4#0".."n4#63" share their upper
// bits), which would cluster every virtual point of a node into one ring arc
// and collapse all group walks onto the same replica set; the finalizer
// spreads them uniformly.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
