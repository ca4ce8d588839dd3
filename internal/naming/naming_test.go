package naming

import (
	"context"
	"errors"
	"testing"

	"dedisys/internal/group"
	"dedisys/internal/transport"
)

func twoServices(t *testing.T) (*transport.Network, *Service, *Service) {
	t.Helper()
	net := transport.NewNetwork()
	for _, id := range []transport.NodeID{"n1", "n2"} {
		if err := net.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	gms := group.NewMembership(net)
	s1, err := New("n1", net, gms)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New("n2", net, gms)
	if err != nil {
		t.Fatal(err)
	}
	return net, s1, s2
}

func TestBindLookupPropagation(t *testing.T) {
	_, s1, s2 := twoServices(t)
	if err := s1.Bind("flights/LH1234", "f1"); err != nil {
		t.Fatal(err)
	}
	id, err := s1.Lookup("flights/LH1234")
	if err != nil || id != "f1" {
		t.Fatalf("local lookup = %s, %v", id, err)
	}
	// The binding propagated to the peer.
	id, err = s2.Lookup("flights/LH1234")
	if err != nil || id != "f1" {
		t.Fatalf("remote lookup = %s, %v", id, err)
	}
	if err := s1.Bind("flights/LH1234", "other"); !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("double bind err = %v", err)
	}
	if _, err := s2.Lookup("nope"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("missing lookup err = %v", err)
	}
}

func TestRebindAndUnbind(t *testing.T) {
	_, s1, s2 := twoServices(t)
	if err := s1.Bind("a", "x1"); err != nil {
		t.Fatal(err)
	}
	s1.Rebind("a", "x2")
	if id, _ := s2.Lookup("a"); id != "x2" {
		t.Fatalf("rebind not propagated: %s", id)
	}
	if err := s1.Unbind("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Lookup("a"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("unbind not propagated: %v", err)
	}
	if err := s1.Unbind("a"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("double unbind err = %v", err)
	}
	if got := s1.Names(); len(got) != 0 {
		t.Fatalf("names after unbind = %v", got)
	}
}

func TestNamesSorted(t *testing.T) {
	_, s1, _ := twoServices(t)
	for _, n := range []string{"c", "a", "b"} {
		if err := s1.Bind(n, "x"); err != nil {
			t.Fatal(err)
		}
	}
	got := s1.Names()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("names = %v", got)
	}
}

func TestPartitionAndSync(t *testing.T) {
	net, s1, s2 := twoServices(t)
	net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})

	// Both sides bind independently during the partition.
	if err := s1.Bind("p/a", "a1"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Bind("p/b", "b1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Lookup("p/a"); !errors.Is(err, ErrNotBound) {
		t.Fatal("binding crossed the partition")
	}

	net.Heal()
	if err := syncWith(s1, "n2"); err != nil {
		t.Fatal(err)
	}
	if err := syncWith(s2, "n1"); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Service{s1, s2} {
		if id, err := s.Lookup("p/a"); err != nil || id != "a1" {
			t.Fatalf("p/a = %s, %v", id, err)
		}
		if id, err := s.Lookup("p/b"); err != nil || id != "b1" {
			t.Fatalf("p/b = %s, %v", id, err)
		}
	}
}

func TestUnbindTombstoneWinsAfterSync(t *testing.T) {
	net, s1, s2 := twoServices(t)
	if err := s1.Bind("x", "x1"); err != nil {
		t.Fatal(err)
	}
	net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	// n1 unbinds during the partition; n2 still has the old binding.
	if err := s1.Unbind("x"); err != nil {
		t.Fatal(err)
	}
	net.Heal()
	if err := syncWith(s2, "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Lookup("x"); !errors.Is(err, ErrNotBound) {
		t.Fatal("tombstone lost during sync")
	}
}

func TestSyncUnreachablePeer(t *testing.T) {
	net, s1, _ := twoServices(t)
	net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"})
	if err := syncWith(s1, "n2"); err == nil {
		t.Fatal("sync across partition should fail")
	}
}

// syncWith merges one peer's bindings into s: a SyncAll pass over that peer.
func syncWith(s *Service, peer transport.NodeID) error {
	return s.SyncAll(context.Background(), []transport.NodeID{peer})[0].Err
}

// TestSyncAllMergesAllPeers checks that a single SyncAll pass pulls every
// peer's bindings concurrently and merges them deterministically.
func TestSyncAllMergesAllPeers(t *testing.T) {
	net := transport.NewNetwork()
	ids := []transport.NodeID{"n1", "n2", "n3"}
	for _, id := range ids {
		if err := net.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	gms := group.NewMembership(net)
	services := make(map[transport.NodeID]*Service, len(ids))
	for _, id := range ids {
		s, err := New(id, net, gms)
		if err != nil {
			t.Fatal(err)
		}
		services[id] = s
	}
	net.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2"}, []transport.NodeID{"n3"})
	if err := services["n2"].Bind("p/b", "b1"); err != nil {
		t.Fatal(err)
	}
	if err := services["n3"].Bind("p/c", "c1"); err != nil {
		t.Fatal(err)
	}
	net.Heal()
	results := services["n1"].SyncAll(context.Background(), []transport.NodeID{"n2", "n3"})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, sr := range results {
		if sr.Err != nil {
			t.Fatalf("peer %s: %v", sr.Peer, sr.Err)
		}
	}
	for name, want := range map[string]string{"p/b": "b1", "p/c": "c1"} {
		id, err := services["n1"].Lookup(name)
		if err != nil || string(id) != want {
			t.Fatalf("%s = %s, %v", name, id, err)
		}
	}
}

// TestSyncAllReportsUnreachablePeers checks the per-peer error reporting:
// the reachable peer merges, the unreachable one reports its error and the
// pass as a whole still succeeds.
func TestSyncAllReportsUnreachablePeers(t *testing.T) {
	net := transport.NewNetwork()
	ids := []transport.NodeID{"n1", "n2", "n3"}
	for _, id := range ids {
		if err := net.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	gms := group.NewMembership(net)
	services := make(map[transport.NodeID]*Service, len(ids))
	for _, id := range ids {
		s, err := New(id, net, gms)
		if err != nil {
			t.Fatal(err)
		}
		services[id] = s
	}
	if err := services["n2"].Bind("x", "x1"); err != nil {
		t.Fatal(err)
	}
	net.Partition([]transport.NodeID{"n1", "n2"}, []transport.NodeID{"n3"})
	results := services["n1"].SyncAll(context.Background(), []transport.NodeID{"n2", "n3"})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Peer != "n2" || results[0].Err != nil {
		t.Fatalf("reachable peer result = %+v", results[0])
	}
	if results[1].Peer != "n3" || results[1].Err == nil {
		t.Fatalf("unreachable peer result = %+v", results[1])
	}
	if id, err := services["n1"].Lookup("x"); err != nil || id != "x1" {
		t.Fatalf("reachable peer's binding not merged: %s, %v", id, err)
	}
}
