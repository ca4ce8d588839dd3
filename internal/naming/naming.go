// Package naming provides the naming service (NS) of Figure 4.1 — the JNDI
// analogue: name-to-object bindings that applications use to locate their
// entity objects. Bindings are replicated to all reachable nodes when they
// are created and lazily synchronised when partitions re-unify; like the
// prototype's JNDI, the service favours availability (lookups are always
// local) over binding consistency.
//
// Under sharded placement (WithPlacement) the binding table stays full-mesh —
// every node can resolve every name — but each binding records the replica
// group owning its object, so resolvers know which group to route the
// invocation to without consulting the ring again.
package naming

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"dedisys/internal/group"
	"dedisys/internal/object"
	"dedisys/internal/placement"
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
	Group int  // owning replica group under sharded placement, -1 otherwise
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
	self  transport.NodeID
	net   transport.Transport
	gms   *group.Membership
	comm  *group.Comm
	place *placement.Ring // nil under full replication

	mu       sync.Mutex
	epoch    int64
	bindings map[string]binding
}

// Option configures a naming service.
type Option func(*Service)

// WithPlacement makes the service record, on every binding, the replica
// group the placement ring assigns to the bound object. A nil ring is
// ignored.
func WithPlacement(r *placement.Ring) Option {
	return func(s *Service) { s.place = r }
}

// New creates a naming service and registers its handlers.
func New(self transport.NodeID, net transport.Transport, gms *group.Membership, opts ...Option) (*Service, error) {
	s := &Service{
		self:     self,
		net:      net,
		gms:      gms,
		comm:     group.NewComm(net),
		bindings: make(map[string]binding),
	}
	for _, opt := range opts {
		opt(s)
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
	b := binding{ID: id, Epoch: s.epoch, Group: s.groupOf(id)}
	s.bindings[name] = b
	s.mu.Unlock()
	s.broadcast(msgBind, bindMsg{Name: name, Binding: b})
	return nil
}

// groupOf resolves the owning replica group of an object, -1 when the
// service runs without sharded placement.
func (s *Service) groupOf(id object.ID) int {
	if s.place == nil {
		return -1
	}
	return s.place.GroupOf(id)
}

// Rebind associates a name with an object, replacing any existing binding.
func (s *Service) Rebind(name string, id object.ID) {
	s.mu.Lock()
	s.epoch++
	b := binding{ID: id, Epoch: s.epoch, Group: s.groupOf(id)}
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
	dead := binding{ID: b.ID, Epoch: s.epoch, Dead: true, Group: b.Group}
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

// Resolve is Lookup plus routing metadata: it returns the bound object and
// the replica group owning it (-1 without sharded placement), so callers can
// direct the invocation to the group without re-deriving the placement.
func (s *Service) Resolve(name string) (object.ID, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bindings[name]
	if !ok || b.Dead {
		return "", -1, fmt.Errorf("%w: %s", ErrNotBound, name)
	}
	return b.ID, b.Group, nil
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

// SyncWith pulls a peer's bindings and merges them (used after partitions
// re-unify; newer epochs win, tombstones included). The context bounds the
// pull.
func (s *Service) SyncWith(ctx context.Context, peer transport.NodeID) error {
	resp, err := s.comm.Send(ctx, s.self, peer, msgPull, nil)
	if err != nil {
		return fmt.Errorf("naming: sync with %s: %w", peer, err)
	}
	return s.mergeResponse(resp)
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
