package naming

import (
	"errors"
	"testing"

	"dedisys/internal/transport"
)

// syncBoth heals the network and merges both binding tables in both
// directions, the way the reconciliation orchestrator does after a view
// change re-unites two partitions.
func syncBoth(t *testing.T, net *transport.Network, s1, s2 *Service) {
	t.Helper()
	net.Heal()
	if err := syncWith(s1, "n2"); err != nil {
		t.Fatal(err)
	}
	if err := syncWith(s2, "n1"); err != nil {
		t.Fatal(err)
	}
}

// TestTombstoneWinsEpochTie: an unbind in one partition concurrent with a
// rebind in the other lands both sides on the same epoch. After the heal the
// tombstone must win on every node regardless of merge direction — a name
// deleted anywhere must not be resurrected by a concurrent equal-epoch bind.
func TestTombstoneWinsEpochTie(t *testing.T) {
	net, s1, s2 := twoServices(t)
	if err := s1.Bind("a", "x1"); err != nil {
		t.Fatal(err) // both services now at epoch 1
	}
	net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	if err := s1.Unbind("a"); err != nil { // epoch 2, tombstone
		t.Fatal(err)
	}
	s2.Rebind("a", "x2") // epoch 2, live — the tie

	syncBoth(t, net, s1, s2)

	for i, s := range []*Service{s1, s2} {
		if _, err := s.Lookup("a"); !errors.Is(err, ErrNotBound) {
			t.Fatalf("s%d: resurrected binding after heal: %v", i+1, err)
		}
	}
	s1.mu.Lock()
	b1 := s1.bindings["a"]
	s1.mu.Unlock()
	s2.mu.Lock()
	b2 := s2.bindings["a"]
	s2.mu.Unlock()
	if !b1.Dead || !b2.Dead || b1 != b2 {
		t.Fatalf("tables diverged: %+v vs %+v", b1, b2)
	}
}

// TestConcurrentRebindEpochTieDeterministic: two partitions rebinding the
// same name at the same epoch must converge on one winner chosen by the
// global tie-break (larger object ID), not on whichever table merged last.
func TestConcurrentRebindEpochTieDeterministic(t *testing.T) {
	net, s1, s2 := twoServices(t)
	if err := s1.Bind("a", "x1"); err != nil {
		t.Fatal(err)
	}
	net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	s1.Rebind("a", "id-aaa") // epoch 2 in partition {n1}
	s2.Rebind("a", "id-zzz") // epoch 2 in partition {n2}

	syncBoth(t, net, s1, s2)

	for i, s := range []*Service{s1, s2} {
		id, err := s.Lookup("a")
		if err != nil {
			t.Fatalf("s%d: %v", i+1, err)
		}
		if id != "id-zzz" {
			t.Fatalf("s%d: winner = %s, want id-zzz", i+1, id)
		}
	}
}

func TestSupersedesTotalOrder(t *testing.T) {
	live := binding{ID: "x", Epoch: 2}
	older := binding{ID: "y", Epoch: 1}
	dead := binding{ID: "x", Epoch: 2, Dead: true}
	if !supersedes(live, older) || supersedes(older, live) {
		t.Fatal("higher epoch must win")
	}
	if !supersedes(dead, live) || supersedes(live, dead) {
		t.Fatal("tombstone must win an epoch tie")
	}
	if !supersedes(binding{ID: "z", Epoch: 2}, live) {
		t.Fatal("larger ID must win a live epoch tie")
	}
	if supersedes(live, live) {
		t.Fatal("a binding must not supersede itself")
	}
}
