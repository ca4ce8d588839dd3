package replication

import (
	"errors"
	"slices"
	"testing"

	"dedisys/internal/group"
	"dedisys/internal/transport"
)

func view(members ...transport.NodeID) group.View {
	return group.View{Members: members}
}

func threeReplicaInfo() Info {
	return Info{Home: "n1", Replicas: []transport.NodeID{"n1", "n2", "n3"}}
}

func TestProtocolNames(t *testing.T) {
	cases := map[string]Protocol{
		"primary-backup":    PrimaryBackup{},
		"P4":                PrimaryPerPartition{},
		"primary-partition": PrimaryPartition{},
		"adaptive-voting":   AdaptiveVoting{},
		"quorum":            Quorum{},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("name = %s, want %s", p.Name(), want)
		}
	}
}

func TestPrimaryBackupStaleness(t *testing.T) {
	p := PrimaryBackup{}
	info := threeReplicaInfo()
	if p.PossiblyStale(info, view("n1", "n2", "n3"), 1) {
		t.Error("healthy view stale")
	}
	// Primary reachable: reads reliable even if a backup is missing.
	if p.PossiblyStale(info, view("n1", "n2"), 2.0/3) {
		t.Error("primary-reachable view stale")
	}
	// Primary gone: stale.
	if !p.PossiblyStale(info, view("n2", "n3"), 2.0/3) {
		t.Error("primary-less view not stale")
	}
}

// TestPrimaryPartitionStalenessAndCoordinator: the primary partition is never
// stale, since only it writes; a minority partition that misses a replica is.
func TestPrimaryPartitionStalenessAndCoordinator(t *testing.T) {
	p := PrimaryPartition{}
	info := threeReplicaInfo()
	if p.PossiblyStale(info, view("n1", "n2", "n3"), 1) {
		t.Error("full view stale")
	}
	if p.PossiblyStale(info, view("n2", "n3"), 2.0/3) {
		t.Error("majority view stale")
	}
	if !p.PossiblyStale(info, view("n1"), 1.0/3) {
		t.Error("minority view not stale")
	}
	// An even split is no majority: it may not write, and so its reads are
	// possibly stale, however many replicas it holds. Its view here holds
	// two of the three replicas; its weight (0.5) counts every node.
	if !p.PossiblyStale(info, view("n2", "n3"), 0.5) {
		t.Error("even-split view not stale")
	}
	// The minority partition has a coordinator (TestCoordinatorRule) and
	// still may not write.
	if err := p.WriteAllowed(info, view("n2", "n3"), 0.5); err == nil {
		t.Error("even-split write allowed")
	}
	if err := p.WriteAllowed(info, view("n1"), 1.0/3); err == nil {
		t.Error("minority write allowed")
	}
}

// TestCoordinatorRule pins the coordinator rule the four protocols share:
// the designated home while it is in view — also when a smaller replica node
// is — otherwise the smallest reachable replica, and ErrNoReplica for a view
// without replicas.
func TestCoordinatorRule(t *testing.T) {
	info := Info{Home: "n2", Replicas: []transport.NodeID{"n1", "n2", "n3"}}
	views := []struct {
		name string
		view group.View
		want transport.NodeID
		err  error
	}{
		{"home in view", view("n1", "n2", "n3"), "n2", nil},
		{"home out of view", view("n1", "n3"), "n1", nil},
		{"no replica in view", view("n9"), "", ErrNoReplica},
	}
	for _, p := range []Protocol{PrimaryPerPartition{}, PrimaryPartition{}, AdaptiveVoting{}, Quorum{}} {
		for _, v := range views {
			got, err := p.Coordinator(info, v.view)
			if got != v.want || !errors.Is(err, v.err) {
				t.Errorf("%s, %s: coordinator = %q, %v; want %q, %v", p.Name(), v.name, got, err, v.want, v.err)
			}
		}
	}
}

// TestReachableReplicasSharesASubsetList pins the staging rule: when every
// replica is in view, or every view member is a replica, that list is the
// intersection and is handed out itself, cap-clamped so that an append
// reallocates; only a view that both misses a replica and holds a foreign
// node builds a slice.
func TestReachableReplicasSharesASubsetList(t *testing.T) {
	info := Info{Home: "n1", Replicas: []transport.NodeID{"n1", "n2", "n3", "n4"}}
	superset, subset := view("n1", "n2", "n3", "n4", "n5"), view("n1", "n2")
	for _, c := range []struct {
		name   string
		view   group.View
		want   []transport.NodeID
		shares []transport.NodeID // the list the result is, nil for a built one
	}{
		{"every replica in view", superset, info.Replicas, info.Replicas},
		{"every member a replica", subset, subset.Members, subset.Members},
		{"neither", view("n2", "n3", "n9"), []transport.NodeID{"n2", "n3"}, nil},
		{"no replica in view", view("n9"), nil, nil},
	} {
		got := info.reachableReplicas(c.view)
		if !slices.Equal(got, c.want) || cap(got) != len(got) {
			t.Errorf("%s: %v (cap %d), want %v", c.name, got, cap(got), c.want)
			continue
		}
		for _, list := range [][]transport.NodeID{info.Replicas, c.view.Members} {
			shared := len(got) > 0 && &got[0] == &list[0]
			if want := c.shares != nil && &c.shares[0] == &list[0]; shared != want {
				t.Errorf("%s: shares %v: %v, want %v", c.name, list, shared, want)
			}
		}
	}
}

func TestAdaptiveVotingEdges(t *testing.T) {
	p := AdaptiveVoting{}
	info := threeReplicaInfo()
	// 2 of 3 reachable: read quorum holds.
	if p.PossiblyStale(info, view("n1", "n2"), 2.0/3) {
		t.Error("majority view stale")
	}
	// 1 of 3: below read quorum.
	if !p.PossiblyStale(info, view("n3"), 1.0/3) {
		t.Error("minority view not stale")
	}
	if err := p.WriteAllowed(info, view("n9"), 1); err == nil {
		t.Error("write without replicas allowed")
	}
}

func TestManagerAccessors(t *testing.T) {
	h := newHarness(t, 2, PrimaryPerPartition{})
	mgr := h.node("n1").mgr
	if mgr.protocol.Name() != "P4" {
		t.Errorf("protocol = %s", mgr.protocol.Name())
	}
	h.create(t, "n1", "Flight", "f2", nil)
	h.create(t, "n1", "Flight", "f1", nil)
	mgr.mu.Lock()
	_, f1 := mgr.meta["f1"]
	_, f2 := mgr.meta["f2"]
	known := len(mgr.meta)
	mgr.mu.Unlock()
	if known != 2 || !f1 || !f2 {
		t.Errorf("replication metadata holds %d objects (f1 %v, f2 %v), want f1 and f2", known, f1, f2)
	}
	if !mgr.HasLocalReplica("f1") || mgr.HasLocalReplica("ghost") {
		t.Error("HasLocalReplica wrong")
	}
}
