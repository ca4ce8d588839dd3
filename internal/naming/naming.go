// Package naming provides the naming service (NS) of Figure 4.1 — the JNDI
// analogue: name-to-object bindings that applications use to locate their
// entity objects. Bindings are replicated to all reachable nodes when they
// are created and lazily synchronised when partitions re-unify; like the
// prototype's JNDI, the service favours availability (lookups are always
// local) over binding consistency.
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

// Message kinds of the naming service.
const (
	msgBind   = "naming.bind"
	msgUnbind = "naming.unbind"
	msgPull   = "naming.pull"
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
	net  transport.Transport
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
		net:      net,
		gms:      gms,
		comm:     group.NewComm(net),
		bindings: make(map[string]binding),
	}
	for kind, h := range map[string]transport.Handler{
		msgBind:   s.handleBind,
		msgUnbind: s.handleUnbind,
		msgPull:   s.handlePull,
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
	s.broadcast(msgBind, bindMsg{Name: name, Binding: b})
	return nil
}

// Rebind associates a name with an object, replacing any existing binding.
func (s *Service) Rebind(name string, id object.ID) {
	s.mu.Lock()
	s.epoch++
	b := binding{ID: id, Epoch: s.epoch}
	s.bindings[name] = b
	s.mu.Unlock()
	s.broadcast(msgBind, bindMsg{Name: name, Binding: b})
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
	s.broadcast(msgUnbind, bindMsg{Name: name, Binding: dead})
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

// SyncAll pulls bindings from every peer concurrently — one multicast round,
// one sender per peer — and merges the responses in peer order, so the
// merged result is deterministic regardless of response arrival. Unreachable
// peers report their error in the result slice and are skipped (they
// synchronise on a later pass); the slice preserves the Multicast
// destination order.
func (s *Service) SyncAll(ctx context.Context, peers []transport.NodeID) []SyncResult {
	results := s.comm.Multicast(ctx, s.self, peers, msgPull, nil)
	out := make([]SyncResult, len(results))
	for i, res := range results {
		sr := SyncResult{Peer: res.Node, Err: res.Err}
		if sr.Err == nil {
			sr.Err = s.mergeResponse(res.Response)
		}
		if sr.Err != nil {
			sr.Err = fmt.Errorf("naming: sync with %s: %w", res.Node, sr.Err)
		}
		out[i] = sr
	}
	return out
}

// mergeResponse folds one peer's pulled binding table into the local one
// (newer epochs win, tombstones included).
func (s *Service) mergeResponse(resp any) error {
	remote, ok := resp.(map[string]binding)
	if !ok {
		return fmt.Errorf("naming: bad pull response %T", resp)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, rb := range remote {
		lb, exists := s.bindings[name]
		if !exists || supersedes(rb, lb) {
			s.bindings[name] = rb
			if rb.Epoch > s.epoch {
				s.epoch = rb.Epoch
			}
		}
	}
	return nil
}

type bindMsg struct {
	Name    string
	Binding binding
}

func (s *Service) broadcast(kind string, msg bindMsg) {
	// Bind/Rebind/Unbind stay context-free convenience APIs; their fan-out
	// runs under a background context like the prototype's JNDI writes.
	members := s.gms.ViewOf(s.self).Members
	for _, res := range s.comm.Multicast(context.Background(), s.self, members, kind, msg) {
		_ = res // unreachable nodes synchronise on heal
	}
}

func (s *Service) handleBind(from transport.NodeID, payload any) (any, error) {
	return s.applyRemote(payload)
}

func (s *Service) handleUnbind(from transport.NodeID, payload any) (any, error) {
	return s.applyRemote(payload)
}

func (s *Service) applyRemote(payload any) (any, error) {
	msg, ok := payload.(bindMsg)
	if !ok {
		return nil, fmt.Errorf("naming: bad payload %T", payload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if lb, exists := s.bindings[msg.Name]; !exists || supersedes(msg.Binding, lb) {
		s.bindings[msg.Name] = msg.Binding
		if msg.Binding.Epoch > s.epoch {
			s.epoch = msg.Binding.Epoch
		}
	}
	return "ack", nil
}

func (s *Service) handlePull(from transport.NodeID, payload any) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]binding, len(s.bindings))
	for k, v := range s.bindings {
		out[k] = v
	}
	return out, nil
}
