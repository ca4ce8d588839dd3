// Package naming provides the naming service (NS) of Figure 4.1 — the JNDI
// analogue: name-to-object bindings that applications use to locate their
// entity objects. Bindings are replicated to all reachable nodes when they
// are created and lazily synchronised, both ways, when partitions re-unify;
// like the prototype's JNDI, the service favours availability (lookups are
// always local) over binding consistency.
//
// Under sharded placement the binding table stays full-mesh — every node can
// resolve every name. A binding records only the object; the invocation finds
// the object's replica group through the placement ring as any other does.
package naming

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"dedisys/internal/group"
	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// Message kinds of the naming service: one binding (a tombstone included),
// and a whole table each way.
const (
	msgBind = "naming.bind"
	msgSync = "naming.sync"
)

// Errors of the naming service.
var (
	// ErrNotBound reports a lookup of an unbound name.
	ErrNotBound = errors.New("naming: name not bound")
	// ErrAlreadyBound reports a bind of an existing name.
	ErrAlreadyBound = errors.New("naming: name already bound")
)

// binding is one replicated name entry; the epoch orders conflicting binds.
type binding struct {
	ID    object.ID
	Epoch int64
	Dead  bool // tombstone after unbind
}

// supersedes reports whether the incoming binding replaces the existing one.
// The rule is a deterministic total order so that every node merging the
// same pair of divergent tables — in either direction — converges on the
// same winner: a higher epoch wins; at equal epochs a tombstone wins over a
// live binding (an unbind concurrent with a rebind must not resurrect the
// name on one side only); between two live bindings at the same epoch the
// larger object ID wins as an arbitrary but global tie-break.
func supersedes(incoming, existing binding) bool {
	if incoming.Epoch != existing.Epoch {
		return incoming.Epoch > existing.Epoch
	}
	if incoming.Dead != existing.Dead {
		return incoming.Dead
	}
	return incoming.ID > existing.ID
}

// Service is the per-node naming service.
type Service struct {
	self transport.NodeID
	gms  *group.Membership
	comm *group.Comm

	mu       sync.Mutex
	epoch    int64
	bindings map[string]binding
}

// New creates a naming service and registers its handlers.
func New(self transport.NodeID, net transport.Transport, gms *group.Membership) (*Service, error) {
	s := &Service{
		self:     self,
		gms:      gms,
		comm:     group.NewComm(net),
		bindings: make(map[string]binding),
	}
	for kind, h := range map[string]transport.Handler{
		msgBind: s.handleBind,
		msgSync: s.handleSync,
	} {
		if err := net.Handle(self, kind, h); err != nil {
			return nil, fmt.Errorf("naming: register %s: %w", kind, err)
		}
	}
	return s, nil
}

// Bind associates a name with an object and propagates the binding to all
// reachable nodes.
func (s *Service) Bind(name string, id object.ID) error {
	s.mu.Lock()
	if b, ok := s.bindings[name]; ok && !b.Dead {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrAlreadyBound, name)
	}
	s.epoch++
	b := binding{ID: id, Epoch: s.epoch}
	s.bindings[name] = b
	s.mu.Unlock()
	s.broadcast(name, b)
	return nil
}

// Rebind associates a name with an object, replacing any existing binding.
func (s *Service) Rebind(name string, id object.ID) {
	s.mu.Lock()
	s.epoch++
	b := binding{ID: id, Epoch: s.epoch}
	s.bindings[name] = b
	s.mu.Unlock()
	s.broadcast(name, b)
}

// Unbind removes a name, leaving a tombstone so the removal wins over stale
// binds during synchronisation.
func (s *Service) Unbind(name string) error {
	s.mu.Lock()
	b, ok := s.bindings[name]
	if !ok || b.Dead {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotBound, name)
	}
	s.epoch++
	dead := binding{ID: b.ID, Epoch: s.epoch, Dead: true}
	s.bindings[name] = dead
	s.mu.Unlock()
	s.broadcast(name, dead)
	return nil
}

// Lookup resolves a name locally.
func (s *Service) Lookup(name string) (object.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bindings[name]
	if !ok || b.Dead {
		return "", fmt.Errorf("%w: %s", ErrNotBound, name)
	}
	return b.ID, nil
}

// Names returns all bound names, sorted.
func (s *Service) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.bindings))
	for name, b := range s.bindings {
		if !b.Dead {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SyncResult is the per-peer outcome of one SyncAll pass.
type SyncResult struct {
	Peer transport.NodeID
	Err  error // nil when the peer's bindings were merged
}

// SyncAll exchanges binding tables with every peer in one multicast round,
// one sender per peer: the request carries this node's table, each peer
// merges it and replies with its table as it was before the merge, and the
// replies merge here in peer order, so both sides converge in one exchange
// and the result does not depend on response arrival. Unreachable peers
// report their error in the result slice and are skipped (they synchronise
// on a later pass); the slice preserves the Multicast destination order.
func (s *Service) SyncAll(ctx context.Context, peers []transport.NodeID) []SyncResult {
	results := s.comm.Multicast(ctx, s.self, peers, msgSync, s.table())
	out := make([]SyncResult, len(results))
	for i, res := range results {
		sr := SyncResult{Peer: res.Node, Err: res.Err}
		if sr.Err == nil {
			sr.Err = s.merge(res.Response)
		}
		if sr.Err != nil {
			sr.Err = fmt.Errorf("naming: sync with %s: %w", res.Node, sr.Err)
		}
		out[i] = sr
	}
	return out
}

// table copies the binding table.
func (s *Service) table() map[string]binding {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]binding, len(s.bindings))
	for k, v := range s.bindings {
		out[k] = v
	}
	return out
}

// merge folds a peer's binding table into the local one (newer epochs win,
// tombstones included).
func (s *Service) merge(payload any) error {
	remote, ok := payload.(map[string]binding)
	if !ok {
		return fmt.Errorf("naming: bad sync payload %T", payload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, b := range remote {
		s.adopt(name, b)
	}
	return nil
}

// adopt installs b under name if it supersedes the local entry; callers hold
// s.mu.
func (s *Service) adopt(name string, b binding) {
	if lb, exists := s.bindings[name]; !exists || supersedes(b, lb) {
		s.bindings[name] = b
		s.epoch = max(s.epoch, b.Epoch)
	}
}

type bindMsg struct {
	Name    string
	Binding binding
}

func (s *Service) broadcast(name string, b binding) {
	// Bind/Rebind/Unbind stay context-free convenience APIs; their fan-out
	// runs under a background context like the prototype's JNDI writes.
	members := s.gms.ViewOf(s.self).Members
	for _, res := range s.comm.Multicast(context.Background(), s.self, members, msgBind, bindMsg{Name: name, Binding: b}) {
		_ = res // unreachable nodes synchronise on heal
	}
}

// handleBind applies a peer's binding, a live one or a tombstone.
func (s *Service) handleBind(from transport.NodeID, payload any) (any, error) {
	msg, ok := payload.(bindMsg)
	if !ok {
		return nil, fmt.Errorf("naming: bad payload %T", payload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adopt(msg.Name, msg.Binding)
	return "ack", nil
}

// handleSync merges a peer's table and answers with this node's table as it
// was before the merge, so nothing the peer sent echoes back.
func (s *Service) handleSync(from transport.NodeID, payload any) (any, error) {
	mine := s.table()
	if err := s.merge(payload); err != nil {
		return nil, err
	}
	return mine, nil
}
