package node_test

// A commit's threats ride its repl.batch (§5.1: threat data is replicated
// too). Every member of the view the commit staged under receives each threat
// it accepts and each identity it clears once: inside the batch where the
// commit's round reaches the member, in a repl.batch of its own with no ops
// where it does not, through the same per-peer sender. Every member that
// answered holds the threat when the commit returns, and a reconciliation
// pass's removal, sent through those senders too, never overtakes it.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dedisys/internal/chaos"
	"dedisys/internal/constraint"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/placement"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
)

// sends is what the network delivered, per destination and kind.
type sends map[transport.NodeID]map[string]int

// sendTally counts the messages the simulated network delivers. It taps the
// drop hook, which every send to a reachable destination passes, and drops
// nothing.
type sendTally struct {
	mu   sync.Mutex
	sent sends
}

func tapSends(t *testing.T, net *transport.Network) *sendTally {
	t.Helper()
	s := &sendTally{sent: sends{}}
	net.SetDrop(func(_, to transport.NodeID, kind string) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.sent[to] == nil {
			s.sent[to] = map[string]int{}
		}
		s.sent[to][kind]++
		return false
	})
	t.Cleanup(func() { net.SetDrop(nil) })
	return s
}

// await waits until a message of kind has been sent to the node.
func (s *sendTally) await(t *testing.T, to transport.NodeID, kind string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		n := s.sent[to][kind]
		s.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s sent to %s", kind, to)
		}
	}
}

// take returns what was sent since the last take.
func (s *sendTally) take() sends {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.sent
	s.sent = sends{}
	return out
}

// newRegCluster builds a cluster of Reg objects under the tradeable
// NonNegative constraint, which a degraded write accepts as a threat and a
// healthy one satisfies.
func newRegCluster(t *testing.T, size int, opts ...node.ClusterOption) *node.Cluster {
	t.Helper()
	c, err := node.NewCluster(size, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.RegisterSchema(chaos.Schema())
		if err := n.DeployConstraints([]constraint.Configured{chaos.TradeableConstraint()}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func setValue(t *testing.T, n *node.Node, id object.ID, v int64) {
	t.Helper()
	if _, err := n.Invoke(id, "SetValue", v); err != nil {
		t.Fatalf("%s sets %s: %v", n.ID, id, err)
	}
}

func expectSends(t *testing.T, what string, got, want sends) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s sent %v, want %v", what, got, want)
	}
}

// holds reports whether the node's store holds a threat of the identity.
func holds(n *node.Node, ident string) bool { return len(n.Threats.ByIdentity(ident)) > 0 }

// TestThreatRidesTheBatch is the paper's setting: four nodes under P4, cut
// into {n1,n2} | {n3,n4}. A write that accepts the first threat of an
// identity sends its peer one message, the repl.batch, and the peer holds the
// threat when the commit returns; a separate threat message made it two. A
// write whose threat folds into the stored one sends one as before. Healed,
// a write that satisfies the constraint clears the identity with one message
// per peer, where a removal message beside the batch made it two.
func TestThreatRidesTheBatch(t *testing.T) {
	c := newRegCluster(t, 4)
	n1, n2 := c.Node(0), c.Node(1)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	const ident = "NonNegative|o1"
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3", "n4"})
	tally := tapSends(t, c.Net)
	batch := map[string]int{"repl.batch": 1}

	setValue(t, n1, "o1", 1)
	expectSends(t, "a first-threat write", tally.take(), sends{"n2": batch})
	if !holds(n1, ident) || !holds(n2, ident) {
		t.Fatalf("after the first-threat write n1 holds %v, n2 %v; want both", n1.Threats.All(), n2.Threats.All())
	}

	setValue(t, n1, "o1", 2)
	expectSends(t, "a folded write", tally.take(), sends{"n2": batch})
	if n1.Threats.Len() != 1 || n2.Threats.Len() != 1 {
		t.Fatalf("after the folded write n1 holds %d threats, n2 %d; want 1 and 1", n1.Threats.Len(), n2.Threats.Len())
	}

	c.Heal()
	setValue(t, n1, "o1", 3)
	expectSends(t, "a healthy write that clears the threat", tally.take(), sends{"n2": batch, "n3": batch, "n4": batch})
	for _, n := range c.Nodes {
		if n.Threats.Len() != 0 {
			t.Fatalf("%s holds %v after the clearing commit returned", n.ID, n.Threats.All())
		}
	}
}

// TestBackupStoresAThreatBatchInOneWrite: four nodes under P4, cut into
// {n1,n2} | {n3,n4}. A degraded write that stores a new threat costs its
// backup n2 one store write of four records, the replica's and the threat's
// three, as the prototype's backup applies a commit inside the primary's
// transaction (§4.3); the threat was three writes after the record's, four in
// all. So does a forwarded one, whose batch the reply brings back to n2. A
// write whose threat folds costs n2 one write of its record, and healed, a
// write that clears both identities one write of the record and the six
// deletions.
func TestBackupStoresAThreatBatchInOneWrite(t *testing.T) {
	c := newRegCluster(t, 4)
	n1, n2 := c.Node(0), c.Node(1)
	for _, id := range []object.ID{"o1", "o2"} {
		if err := n1.Create("Reg", id, object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
			t.Fatal(err)
		}
	}
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3", "n4"})
	for _, w := range []struct {
		what             string
		at               *node.Node
		id               object.ID
		writes, records  int64
		threatsAfterward int
	}{
		{"a first-threat write", n1, "o1", 1, 4, 1},
		{"a forwarded first-threat write", n2, "o2", 1, 4, 2},
		{"a folded write", n1, "o1", 1, 1, 2},
	} {
		writes, records := metric(t, c, "n2.persistence.writes"), metric(t, c, "n2.persistence.records")
		setValue(t, w.at, w.id, 1)
		if got, gotR := metric(t, c, "n2.persistence.writes")-writes, metric(t, c, "n2.persistence.records")-records; got != w.writes || gotR != w.records {
			t.Errorf("%s: the backup made %d store writes of %d records, want %d of %d", w.what, got, gotR, w.writes, w.records)
		}
		if n2.Threats.Len() != w.threatsAfterward {
			t.Fatalf("%s: the backup holds %v", w.what, n2.Threats.All())
		}
	}
	c.Heal()
	writes, records := metric(t, c, "n2.persistence.writes"), metric(t, c, "n2.persistence.records")
	tx := n1.Begin()
	for _, id := range []object.ID{"o1", "o2"} {
		if _, err := n1.InvokeTx(tx, id, "SetValue", int64(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, gotR := metric(t, c, "n2.persistence.writes")-writes, metric(t, c, "n2.persistence.records")-records; got != 1 || gotR != 2+6 {
		t.Errorf("a clearing write: the backup made %d store writes of %d records, want 1 of 8", got, gotR)
	}
	if n2.Threats.Len() != 0 {
		t.Errorf("the backup holds %v after the clearing write", n2.Threats.All())
	}
}

// groupObjects returns n object IDs the ring places in group g.
func groupObjects(t *testing.T, ring *placement.Ring, g, n int) []object.ID {
	t.Helper()
	var ids []object.ID
	for i := 0; len(ids) < n && i < 10_000; i++ {
		if id := object.ID(fmt.Sprintf("reg-%d", i)); ring.GroupOf(id) == g {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("found %d object IDs in group %d, want %d", len(ids), g, n)
	}
	return ids
}

// TestShardedThreatReachesTheViewOnce: six nodes in two replica groups of
// three, and a cut whose coordinator side holds the coordinator, a peer of
// its object's group and a node outside that group. A first-threat write
// sends the group peer one repl.batch that carries the threat and the
// outsider one repl.batch with no ops, and all three stores hold the
// identity. An object no remote replica of which is reachable makes no round
// at all; the view still hears of its threat in one repl.batch.
func TestShardedThreatReachesTheViewOnce(t *testing.T) {
	c := newRegCluster(t, 6, func(o *node.Options) { o.Groups, o.ReplicationFactor = 2, 3 })
	ids := groupObjects(t, c.Ring, 0, 2)
	group := c.Ring.GroupReplicas(0)
	home, peer := group[0], group[1]
	var outsider transport.NodeID
	for _, id := range c.Ring.GroupReplicas(1) {
		if !slices.Contains(group, id) {
			outsider = id
			break
		}
	}
	if outsider == "" {
		t.Skip("ring layout puts every node of group 1 in group 0")
	}
	h := c.ByID(home)
	for _, id := range ids {
		if err := h.Create("Reg", id, object.State{"value": int64(0)}, c.AllReplicas(home)); err != nil {
			t.Fatal(err)
		}
	}
	cut := func(side ...transport.NodeID) {
		var rest []transport.NodeID
		for _, id := range c.IDs() {
			if !slices.Contains(side, id) {
				rest = append(rest, id)
			}
		}
		c.Heal()
		c.Partition(side, rest)
	}
	tally := tapSends(t, c.Net)

	cut(home, peer, outsider)
	setValue(t, h, ids[0], 1)
	expectSends(t, "a first-threat write", tally.take(), sends{
		peer:     {"repl.batch": 1},
		outsider: {"repl.batch": 1},
	})
	ident := "NonNegative|" + string(ids[0])
	for _, id := range []transport.NodeID{home, peer, outsider} {
		if !holds(c.ByID(id), ident) {
			t.Fatalf("%s does not hold %s: %v", id, ident, c.ByID(id).Threats.All())
		}
	}

	cut(home, outsider)
	setValue(t, h, ids[1], 1)
	expectSends(t, "a write with no reachable remote replica", tally.take(), sends{
		outsider: {"repl.batch": 1},
	})
	if !holds(c.ByID(outsider), "NonNegative|"+string(ids[1])) {
		t.Fatalf("%s does not hold the second threat: %v", outsider, c.ByID(outsider).Threats.All())
	}
}

// TestShardedChangeReachesAnOutsiderOnce: six nodes in two replica groups of
// three that share one node, the coordinator. One transaction writes an
// object of each group while a member of the second group is cut away: the
// first write satisfies the constraint and clears its stored threat, the
// second accepts a new one. A view member outside both groups is sent the
// whole change as one repl.batch with no ops, and every node of the coordinator's side
// ends without the cleared identity and with the accepted one.
func TestShardedChangeReachesAnOutsiderOnce(t *testing.T) {
	c := newRegCluster(t, 6, func(o *node.Options) { o.Groups, o.ReplicationFactor = 2, 3 })
	g0, g1 := c.Ring.GroupReplicas(0), c.Ring.GroupReplicas(1)
	var coord, outsider, cutOff transport.NodeID
	for _, id := range c.IDs() {
		switch in0, in1 := slices.Contains(g0, id), slices.Contains(g1, id); {
		case in0 && in1:
			coord = id
		case !in0 && !in1:
			outsider = id
		case in1:
			cutOff = id
		}
	}
	if coord == "" || outsider == "" || cutOff == "" {
		t.Fatalf("groups %v and %v leave no shared node, outsider or second-group-only node", g0, g1)
	}
	cleared, accepted := groupObjects(t, c.Ring, 0, 1)[0], groupObjects(t, c.Ring, 1, 1)[0]
	h := c.ByID(coord)
	for _, id := range []object.ID{cleared, accepted} {
		if err := h.Create("Reg", id, object.State{"value": int64(0)}, c.AllReplicas(coord)); err != nil {
			t.Fatal(err)
		}
	}
	clearedIdent, acceptedIdent := "NonNegative|"+string(cleared), "NonNegative|"+string(accepted)
	for _, n := range c.Nodes {
		if _, _, err := n.Threats.Add(threat.Threat{Constraint: "NonNegative", ContextID: cleared, Degree: constraint.PossiblySatisfied}); err != nil {
			t.Fatal(err)
		}
	}
	var side []transport.NodeID
	for _, id := range c.IDs() {
		if id != cutOff {
			side = append(side, id)
		}
	}
	c.Partition(side, []transport.NodeID{cutOff})
	tally := tapSends(t, c.Net)

	txn := h.Begin()
	for _, id := range []object.ID{cleared, accepted} {
		if _, err := h.InvokeTx(txn, id, "SetValue", int64(1)); err != nil {
			t.Fatalf("%s sets %s: %v", coord, id, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tally.take()[outsider]; !reflect.DeepEqual(got, map[string]int{"repl.batch": 1}) {
		t.Fatalf("the commit sent outsider %s %v, want one repl.batch", outsider, got)
	}
	for _, id := range side {
		if n := c.ByID(id); holds(n, clearedIdent) || !holds(n, acceptedIdent) {
			t.Errorf("%s holds %v; want %s and not %s", id, n.Threats.All(), acceptedIdent, clearedIdent)
		}
	}
}

// TestNoReplicationAnnouncesNoRemoval: nodes built without replication never
// feed each other's threat stores, so a commit that clears a stored threat
// tells nobody — no message leaves it, and the peer keeps its own
// threat of the same identity. The removal used to be announced before the
// check that gates replicated additions.
func TestNoReplicationAnnouncesNoRemoval(t *testing.T) {
	c := newRegCluster(t, 2, func(o *node.Options) { o.DisableReplication = true })
	th := threat.Threat{Constraint: "NonNegative", ContextID: "o1", Degree: constraint.PossiblySatisfied}
	for _, n := range c.Nodes {
		if err := n.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas(n.ID)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := n.Threats.Add(th); err != nil {
			t.Fatal(err)
		}
	}
	tally := tapSends(t, c.Net)
	n1, n2 := c.Node(0), c.Node(1)
	setValue(t, n1, "o1", 1)
	expectSends(t, "a clearing commit without replication", tally.take(), sends{})
	if n1.Threats.Len() != 0 || n2.Threats.Len() != 1 {
		t.Fatalf("n1 holds %d threats, n2 %d; want 0 and 1", n1.Threats.Len(), n2.Threats.Len())
	}
}

// TestRemovalDoesNotOvertakeItsAdd: four nodes under P4, cut into {n1,n2} |
// {n3,n4}, and every repl.batch from n1 to n2 held 200 ms on the link. A
// write at n1 accepts a threat; while its batch is on the way to n2 the
// cluster heals and n1's reconciliation pass finds the constraint satisfied,
// drops the threat and tells the view. The removal leaves through the same
// sender as the commit's batch, so n2 applies the add before the removal, and
// once the commit and the pass have returned no node holds the threat. A
// removal sent beside the senders overtook the add at n2, and the commit's
// late announcement to the grown view re-added it at n3 and n4.
func TestRemovalDoesNotOvertakeItsAdd(t *testing.T) {
	c := newRegCluster(t, 4)
	n1 := c.Node(0)
	if err := n1.Create("Reg", "o1", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3", "n4"})
	inFlight := make(chan struct{})
	var once sync.Once
	c.Net.SetLatency(func(from, to transport.NodeID, kind string) time.Duration {
		if from != "n1" || to != "n2" || kind != "repl.batch" {
			return 0
		}
		once.Do(func() { close(inFlight) })
		return 200 * time.Millisecond
	})
	t.Cleanup(func() { c.Net.SetLatency(nil) })

	committed := make(chan error, 1)
	go func() {
		_, err := n1.Invoke("o1", "SetValue", int64(1))
		committed <- err
	}()
	select {
	case <-inFlight:
	case <-time.After(5 * time.Second):
		t.Fatal("the write's batch never left for n2")
	}
	c.Heal()
	report, err := n1.CCM.ReconcileThreats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if report.Removed != 1 {
		t.Fatalf("the pass reports %+v, want the write's threat removed", report)
	}
	for _, n := range c.Nodes {
		if n.Threats.Len() != 0 {
			t.Errorf("%s holds %v after the commit and the pass returned", n.ID, n.Threats.All())
		}
	}
}

// TestReconciledThreatIsOneStoreWrite: four nodes under P4, cut into
// {n1,n2} | {n3,n4}, and a threat-storing write on each side, on an object of
// its own. Healed, n1 runs the replica phase (its repairs and the threat
// exchange), then its constraint pass, which finds both constraints
// satisfied and announces both removals to each peer in one batch. During
// that pass every store write in the cluster is a removed threat leaving: n1
// makes one write per threat it removes, each deleting the threat's three
// records, and each peer stores the announced batch, every removal in it, in
// one write. One write per record made it three writes per threat, and a
// peer that stored each removal apart one write per threat.
func TestReconciledThreatIsOneStoreWrite(t *testing.T) {
	c := newRegCluster(t, 4)
	n1, n3 := c.Node(0), c.Node(2)
	for _, w := range []struct {
		n  *node.Node
		id object.ID
	}{{n1, "o1"}, {n3, "o3"}} {
		if err := w.n.Create("Reg", w.id, object.State{"value": int64(0)}, c.AllReplicas(w.n.ID)); err != nil {
			t.Fatal(err)
		}
	}
	c.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3", "n4"})
	setValue(t, n1, "o1", 1)
	setValue(t, n3, "o3", 1)
	c.Heal()
	ctx := context.Background()
	peers := []transport.NodeID{"n2", "n3", "n4"}
	if _, err := n1.Repl.ReconcileWith(ctx, peers, nil); err != nil {
		t.Fatal(err)
	}
	if err := n1.CCM.SyncThreats(ctx, peers); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.Repl.WaitPropagation()
	}
	read := func() (counts [][3]int64) {
		for _, n := range c.Nodes {
			at := string(n.ID) + "."
			counts = append(counts, [3]int64{metric(t, c, at+"persistence.writes"), metric(t, c, at+"persistence.records"), metric(t, c, at+"threat.removed")})
		}
		return counts
	}
	before := read()
	report, err := n1.CCM.ReconcileThreats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Removed != 2 {
		t.Fatalf("the pass reports %+v, want both identities removed", report)
	}
	for i, after := range read() {
		id := c.Nodes[i].ID
		w, r, d := after[0]-before[i][0], after[1]-before[i][1], after[2]-before[i][2]
		want := int64(1) // the announced batch
		if id == n1.ID {
			want = d
		}
		if d == 0 || w != want || r != 3*d {
			t.Errorf("%s removed %d threats with %d store writes of %d records; want %d of three records a threat", id, d, w, r, want)
		}
	}
	for _, n := range c.Nodes {
		if n.Threats.Len() != 0 {
			t.Errorf("%s holds %v after the pass", n.ID, n.Threats.All())
		}
	}
}
