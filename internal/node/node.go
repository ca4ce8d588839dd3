// Package node assembles the middleware stack of Figure 4.1 into a runnable
// DeDiSys node: object registry, transaction manager, persistence,
// replication service, constraint consistency manager and the invocation
// service with its interceptor chain. A Cluster builder wires several nodes
// over one simulated network for the evaluation scenarios.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/core"
	"dedisys/internal/detect"
	"dedisys/internal/gossip"
	"dedisys/internal/group"
	"dedisys/internal/invocation"
	"dedisys/internal/naming"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/persistence"
	"dedisys/internal/placement"
	"dedisys/internal/replication"
	"dedisys/internal/repository"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
	"dedisys/internal/tx"
)

// msgInvoke forwards an invocation to the coordinating node.
const msgInvoke = "node.invoke"

// msgDelete forwards a delete to the coordinating node — under sharded
// placement a node outside the object's replica group holds no state to
// delete locally.
const msgDelete = "node.delete"

// ErrNotCoordinator reports a transactional write invocation on a node that
// is not the object's coordinator in the current view.
var ErrNotCoordinator = errors.New("node: not the coordinator for this object")

// Options configure one node.
type Options struct {
	ID  transport.NodeID
	Net transport.Transport
	GMS *group.Membership

	// Protocol selects the replica control protocol (default P4).
	Protocol replication.Protocol
	// ThreatPolicy selects threat storage (default identical-once).
	ThreatPolicy threat.StorePolicy
	// KeepHistory records degraded-mode state history.
	KeepHistory bool
	// RepoCache enables the optimized constraint repository.
	RepoCache bool
	// StoreCost models database latency.
	StoreCost persistence.CostModel
	// DisableCCM turns off constraint consistency management entirely
	// (the "No DeDiSys" configuration of §5.1).
	DisableCCM bool
	// DisableReplication runs the node without the replication service.
	DisableReplication bool
	// Groups shards the object space across this many replica groups
	// (consistent-hash placement). 0 keeps the seed's full replication;
	// Groups=1 with ReplicationFactor 0 reproduces it through the ring.
	Groups int
	// ReplicationFactor is the number of nodes replicating each group;
	// 0 or anything >= the cluster size places every group on all nodes.
	// Only meaningful with Groups > 0.
	ReplicationFactor int
	// Placement overrides the ring built from Groups/ReplicationFactor;
	// NewCluster shares one ring across all nodes through this field.
	Placement *placement.Ring
	// LockTimeout bounds object lock acquisition.
	LockTimeout time.Duration
	// Detect, when non-nil, runs a heartbeat failure detector on the node
	// and feeds its views into the membership service. The Membership must
	// have been built with group.WithDetector (NewCluster arranges this).
	Detect *detect.Config
	// Gossip, when non-nil, runs continuous anti-entropy gossip on the node:
	// periodic digest exchanges with random co-group peers so replicas
	// converge without waiting for heal-triggered reconciliation. Requires
	// replication; Manual configurations register the manager but leave
	// rounds to the caller (RunRound).
	Gossip *gossip.Config
	// Obs is the shared observability scope; the node derives a per-node
	// sub-scope from it ("<id>." metric prefix, node-stamped events). Nil
	// observes into a private registry.
	Obs *obs.Observer
}

// Node is one DeDiSys middleware instance.
type Node struct {
	ID       transport.NodeID
	Registry *object.Registry
	Store    *persistence.Store
	TxMgr    *tx.Manager
	Repo     *repository.Repository
	Threats  *threat.Store
	Repl     *replication.Manager
	CCM      *core.Manager
	Naming   *naming.Service
	Ring     *placement.Ring  // sharded placement, nil under full replication
	Detector *detect.Detector // nil unless Options.Detect was set
	Gossip   *gossip.Manager  // nil unless Options.Gossip was set
	Obs      *obs.Observer    // per-node scope over the shared registry/tracer

	net   transport.Transport
	gms   *group.Membership
	chain *invocation.Chain
}

// cmpResource is the container-managed-persistence analogue: entity state
// touched by a transaction is written to the node's persistent store at
// commit, the way the prototype's entity beans were persisted through
// CMP/BMP into MySQL (Figure 4.1). It keeps no per-transaction state: what
// was touched is the transaction's own write set. Only a node without
// replication registers it: with replication on, each replica's one record
// (the replication manager's, table replica-meta) holds the entity's state
// with its version, vector and placement, and nothing writes this table.
type cmpResource struct {
	store *persistence.Store
	reg   *object.Registry
}

// cmpTable is the persistence table holding entity state.
const cmpTable = "entities"

// Prepare implements tx.Resource.
func (c *cmpResource) Prepare(t *tx.Tx) error { return nil }

// Commit implements tx.Resource: persist what the transaction wrote in one
// store write, a record or its deletion per object.
func (c *cmpResource) Commit(t *tx.Tx) error {
	var buf [8]persistence.Change // a transaction's write set usually fits
	changes := buf[:0]
	t.Writes(func(w tx.Write) {
		if w.Kind == tx.Deleted {
			changes = append(changes, persistence.Change{Table: cmpTable, Key: string(w.ID), Delete: true})
			return
		}
		e, err := c.reg.Get(w.ID)
		if err != nil {
			return // nothing in the registry: no state to persist
		}
		// The entity encodes its own attributes: the transaction still holds
		// its lock, so no snapshot is needed just to feed the encoder.
		changes = append(changes, persistence.Change{Table: cmpTable, Key: string(w.ID), Value: e})
	})
	return c.store.Write(changes)
}

var _ tx.Resource = (*cmpResource)(nil)

// New builds a node and registers its network handlers.
func New(opts Options) (*Node, error) {
	if opts.ID == "" || opts.Net == nil || opts.GMS == nil {
		return nil, errors.New("node: ID, Net and GMS are required")
	}
	base := opts.Obs
	if base == nil {
		base = obs.New()
	}
	scoped := base.Named(string(opts.ID))
	n := &Node{
		ID:       opts.ID,
		Registry: object.NewRegistry(),
		Store:    persistence.NewStore(persistence.WithCost(opts.StoreCost), persistence.WithObserver(scoped)),
		Obs:      scoped,
		net:      opts.Net,
		gms:      opts.GMS,
	}
	txOpts := []tx.Option{tx.WithObserver(scoped)}
	if opts.LockTimeout > 0 {
		txOpts = append(txOpts, tx.WithLockTimeout(opts.LockTimeout))
	}
	n.TxMgr = tx.NewManager(txOpts...)

	repoOpts := []repository.Option{repository.WithObserver(scoped)}
	if opts.RepoCache {
		repoOpts = append(repoOpts, repository.WithCache())
	}
	n.Repo = repository.New(repoOpts...)
	n.Threats = threat.NewStore(n.Store, opts.ThreatPolicy, threat.WithObserver(scoped))
	n.Threats.SetOwner(string(opts.ID))
	if opts.DisableReplication {
		n.TxMgr.RegisterResource(&cmpResource{store: n.Store, reg: n.Registry})
	}

	ring := opts.Placement
	if ring == nil && opts.Groups > 0 {
		// Standalone construction: derive the ring from the network's node
		// universe. Every node building from the same deployment and the
		// same Groups/ReplicationFactor derives the identical placement.
		r, err := placement.New(opts.Net.Nodes(), placement.Config{
			Groups:            opts.Groups,
			ReplicationFactor: opts.ReplicationFactor,
		})
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", opts.ID, err)
		}
		ring = r
	}
	n.Ring = ring

	if !opts.DisableReplication {
		mgr, err := replication.NewManager(replication.Config{
			Self:        opts.ID,
			Net:         opts.Net,
			GMS:         opts.GMS,
			Registry:    n.Registry,
			Store:       n.Store,
			Protocol:    opts.Protocol,
			KeepHistory: opts.KeepHistory,
			Placement:   ring,
			Threats:     n.Threats,
			Obs:         scoped,
		})
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", opts.ID, err)
		}
		n.Repl = mgr
		n.TxMgr.RegisterResource(mgr)
	}

	if !opts.DisableCCM {
		ccm, err := core.New(core.Config{
			Self:     opts.ID,
			Net:      opts.Net,
			GMS:      opts.GMS,
			Registry: n.Registry,
			Repl:     n.Repl,
			Repo:     n.Repo,
			Threats:  n.Threats,
			Obs:      scoped,
		})
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", opts.ID, err)
		}
		n.CCM = ccm
		n.TxMgr.RegisterResource(ccm)
	}

	var interceptors []invocation.Interceptor
	if n.CCM != nil {
		interceptors = append(interceptors, n.CCM.Interceptor())
	}
	n.chain = invocation.NewChain(n.dispatch, interceptors...)

	ns, err := naming.New(opts.ID, opts.Net, opts.GMS)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", opts.ID, err)
	}
	n.Naming = ns

	if err := opts.Net.Handle(opts.ID, msgInvoke, n.handleRemoteInvoke); err != nil {
		return nil, fmt.Errorf("node %s: %w", opts.ID, err)
	}
	if err := opts.Net.Handle(opts.ID, msgDelete, n.handleRemoteDelete); err != nil {
		return nil, fmt.Errorf("node %s: %w", opts.ID, err)
	}

	if opts.Detect != nil {
		if !opts.GMS.DetectorDriven() {
			return nil, fmt.Errorf("node %s: Detect set but membership is oracle-driven (build it with group.WithDetector)", opts.ID)
		}
		d, err := detect.New(opts.Net, opts.ID, *opts.Detect, detect.WithObserver(scoped))
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", opts.ID, err)
		}
		n.Detector = d
		d.Start()
		opts.GMS.AttachSource(d)
	}

	if opts.Gossip != nil {
		if n.Repl == nil {
			return nil, fmt.Errorf("node %s: Gossip set but replication is disabled", opts.ID)
		}
		gcfg := *opts.Gossip
		if gcfg.Placement == nil {
			gcfg.Placement = ring
		}
		gm, err := gossip.New(opts.Net, opts.ID, n.Repl, gcfg, gossip.WithObserver(scoped))
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", opts.ID, err)
		}
		n.Gossip = gm
		if !gcfg.Manual {
			gm.Start()
		}
	}
	return n, nil
}

// Stop shuts down the node's background services (failure detector, gossip
// loop and the replication senders); safe on nodes without them.
func (n *Node) Stop() {
	if n.Detector != nil {
		n.Detector.Stop()
	}
	if n.Gossip != nil {
		n.Gossip.Stop()
	}
	if n.Repl != nil {
		// Join the background straggler sends of threshold commits and the
		// peers' senders, so a stopped node leaves nothing in flight.
		n.Repl.Stop()
	}
}

// dispatch is the terminal interceptor: it executes the business method on
// the local entity under the transaction's object lock. The undo record taken
// before a write method runs is the write mark: persistence and replication
// read the transaction's undo log at commit and ship what memory then holds,
// so a method that mutates and then fails inside a transaction its caller
// commits anyway still leaves memory, store and replicas in agreement. A read
// method has no write mark, so it must not write: dispatch publishes the
// entity's attributes before it runs, and when a Set changed them meanwhile
// (the transaction's lock on the target keeps every other method out), puts
// them back and fails the call. The change would otherwise stay at this
// replica alone, outside the undo log, the store and replication. A replica
// install between the two can hide such a Set; it never fails a read.
func (n *Node) dispatch(inv *invocation.Invocation) (any, error) {
	e, err := n.Registry.Get(inv.Target)
	if err != nil {
		return nil, fmt.Errorf("node %s: dispatch %s: %w", n.ID, inv, err)
	}
	schema, err := n.Registry.Schema(inv.Class)
	if err != nil {
		return nil, err
	}
	spec, err := schema.Method(inv.Method)
	if err != nil {
		return nil, err
	}
	if spec.Kind == object.Write && inv.Tx != nil {
		inv.Tx.RecordUpdate(e)
	}
	var before object.Attrs
	var version int64
	if spec.Kind == object.Read {
		before, version = e.Share()
	}
	res, err := spec.Fn(e, inv.Args)
	if spec.Kind == object.Read && e.Written() {
		e.Restore(before, version)
		return nil, fmt.Errorf("node %s: read method %s changed %s", n.ID, inv.Method, inv.Target)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Begin starts a transaction on this node.
func (n *Node) Begin() *tx.Tx { return n.TxMgr.Begin() }

// BeginCtx starts a transaction bound to the caller's context: lock waits
// and commit-time propagation honour its deadline and cancellation.
func (n *Node) BeginCtx(ctx context.Context) *tx.Tx { return n.TxMgr.BeginCtx(ctx) }

// RegisterSchema installs a class schema (deployment step).
func (n *Node) RegisterSchema(s *object.Schema) { n.Registry.RegisterSchema(s) }

// DeployConstraints registers configured constraints with the repository.
func (n *Node) DeployConstraints(cs []constraint.Configured) error {
	return n.Repo.RegisterAll(cs)
}

// remoteInvokePayload carries a forwarded invocation.
type remoteInvokePayload struct {
	Target object.ID
	Method string
	Args   []any
}

// invokeReply is the reply to a forwarded invocation: the method's result and,
// when the commit left the requester out of its round, the batch the
// requester's replica applies instead (replication.Forwarded). Unknown is the
// refusal of a node that has not heard of the target, where nothing ran: a
// flag, because an error crosses a wire as its text.
type invokeReply struct {
	Result  any
	Apply   any
	Unknown bool
}

// forwardedCall is a forwarded invocation's one allocation on the node that
// runs it: the invocation's context, which names the requester, and the reply.
type forwardedCall struct {
	replication.Forwarded
	reply invokeReply
}

func (n *Node) handleRemoteInvoke(from transport.NodeID, payload any) (any, error) {
	p, ok := payload.(remoteInvokePayload)
	if !ok {
		return nil, fmt.Errorf("node %s: bad invoke payload %T", n.ID, payload)
	}
	// The caller's context does not cross the simulated wire: the remote
	// node executes under its own background context, like a real RPC server
	// that received no deadline metadata. A commit that fails sends no batch
	// back: the requester is stale as after a failed send of the round.
	c := &forwardedCall{Forwarded: replication.Forwarded{Context: context.Background(), Requester: from}}
	res, err := n.InvokeCtx(&c.Forwarded, p.Target, p.Method, p.Args...)
	if errors.Is(err, replication.ErrUnknownObject) {
		c.reply.Unknown = true
		return &c.reply, nil
	}
	if err != nil {
		return nil, err
	}
	c.reply = invokeReply{Result: res, Apply: c.Apply}
	return &c.reply, nil
}

// forward runs an invocation on node to. A batch the reply carries is applied
// before forward returns, so a forwarded write, like a local one, returns
// with this node's replica holding it.
func (n *Node) forward(ctx context.Context, to transport.NodeID, target object.ID, method string, args []any) (any, error) {
	reply, err := n.net.Send(ctx, n.ID, to, msgInvoke, remoteInvokePayload{Target: target, Method: method, Args: args})
	if err != nil {
		return nil, err
	}
	r, ok := reply.(*invokeReply)
	if !ok {
		return nil, fmt.Errorf("node %s: bad invoke reply %T", n.ID, reply)
	}
	if r.Unknown {
		return nil, fmt.Errorf("node %s: %w: %s", to, replication.ErrUnknownObject, target)
	}
	if r.Apply != nil {
		n.Repl.ApplyForwarded(to, r.Apply)
	}
	return r.Result, nil
}

func (n *Node) handleRemoteDelete(from transport.NodeID, payload any) (any, error) {
	id, ok := payload.(object.ID)
	if !ok {
		return nil, fmt.Errorf("node %s: bad delete payload %T", n.ID, payload)
	}
	return nil, n.Delete(id)
}

// Invoke performs one business operation in its own transaction
// (container-managed, EJB "Required" semantics) under a background context.
func (n *Node) Invoke(target object.ID, method string, args ...any) (any, error) {
	return n.InvokeCtx(context.Background(), target, method, args...)
}

// InvokeCtx performs one business operation in its own transaction. The
// context bounds the whole operation: coordinator forwarding, lock waits and
// commit-time replica propagation. Write operations are routed to the
// object's coordinator under the active replication protocol; reads execute
// on the local replica (always local under P4).
func (n *Node) InvokeCtx(ctx context.Context, target object.ID, method string, args ...any) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	kind, class, err := n.methodKind(ctx, target, method)
	if err != nil {
		return nil, err
	}
	if kind == object.Write && n.Repl != nil {
		coord, err := n.Repl.Coordinator(target)
		if errors.Is(err, replication.ErrUnknownObject) {
			return n.forwardToHolder(ctx, kind, target, method, args)
		}
		if err != nil {
			return nil, err
		}
		if err := n.Repl.CheckWrite(target); err != nil {
			return nil, err
		}
		if coord != n.ID {
			return n.forward(ctx, coord, target, method, args)
		}
	}
	if kind == object.Read && n.Repl != nil && !n.Repl.HasLocalReplica(target) {
		return n.forwardToHolder(ctx, kind, target, method, args)
	}

	b := opBlocks.Get().(*opBlock)
	n.TxMgr.BeginInto(ctx, &b.Tx)
	res, err := n.invokeTx(&b.Tx, &b.Invocation, kind, class, target, method, args)
	if err := b.end(err); err != nil {
		return nil, err
	}
	return res, nil
}

// opBlock is the memory of one operation in its own transaction (InvokeCtx,
// CreateCtx, DeleteCtx): nothing the operation hands out points into it, so it
// goes back to opBlocks when the operation returns (DESIGN.md §15, ninth rule).
type opBlock struct {
	tx.Tx
	invocation.Invocation
}

var opBlocks = sync.Pool{New: func() any { return new(opBlock) }}

// release puts b back on the free list. The invocation is zeroed: it holds the
// caller's arguments and result. The finished transaction holds no record.
func (b *opBlock) release() {
	b.Invocation = invocation.Invocation{}
	opBlocks.Put(b)
}

// end finishes the operation begun in b's transaction, whose work returned
// err: it commits after no error and rolls back after one, puts b back, and
// returns the operation's error or the commit's.
func (b *opBlock) end(err error) error {
	if err == nil {
		err = b.Tx.Commit()
	} else if b.Tx.Status() == tx.Active {
		_ = b.Tx.Rollback()
	}
	b.release()
	return err
}

// forwardToHolder serves an invocation this node cannot serve at a replica in
// view that can: a read of an object this node holds no replica of, or a write
// of one it has not heard of — a member the create has not reached — whose
// holder routes it on to its coordinator. The candidates are one of the
// object's replicas, or any member of the view while this node has not heard
// of the object. A replica that cannot serve a read passes it to the next; a
// write passes only from a replica that has not heard of the object either,
// where nothing ran. An invocation that was forwarded here is refused rather
// than passed on.
func (n *Node) forwardToHolder(ctx context.Context, kind object.MethodKind, target object.ID, method string, args []any) (any, error) {
	if _, forwarded := ctx.(*replication.Forwarded); forwarded {
		return nil, fmt.Errorf("node %s: %w: %s", n.ID, replication.ErrUnknownObject, target)
	}
	info, _, err := n.Repl.ReadInfo(target)
	if err != nil {
		return nil, err
	}
	view := n.gms.ViewOf(n.ID)
	for _, r := range info.Replicas {
		if r == n.ID || !view.Contains(r) {
			continue
		}
		var res any
		if res, err = n.forward(ctx, r, target, method, args); err == nil {
			return res, nil
		}
		if kind == object.Write && !errors.Is(err, replication.ErrUnknownObject) {
			return nil, err
		}
	}
	if err == nil {
		err = fmt.Errorf("%w: %s", replication.ErrNoReplica, target)
	}
	return nil, err
}

// InvokeTx performs a business operation within an existing transaction.
// The calling node must be the object's coordinator for write operations.
func (n *Node) InvokeTx(t *tx.Tx, target object.ID, method string, args ...any) (any, error) {
	kind, class, err := n.methodKind(t.Context(), target, method)
	if err != nil {
		return nil, err
	}
	if kind == object.Write && n.Repl != nil {
		coord, err := n.Repl.Coordinator(target)
		if err != nil {
			return nil, err
		}
		if coord != n.ID {
			return nil, fmt.Errorf("%w: coordinator for %s is %s", ErrNotCoordinator, target, coord)
		}
		if err := n.Repl.CheckWrite(target); err != nil {
			return nil, err
		}
	}
	b := opBlocks.Get().(*opBlock)
	defer b.release()
	return n.invokeTx(t, &b.Invocation, kind, class, target, method, args)
}

// invokeTx dispatches a routed invocation of the given kind and class through
// inv, a zero invocation.
func (n *Node) invokeTx(t *tx.Tx, inv *invocation.Invocation, kind object.MethodKind, class string, target object.ID, method string, args []any) (any, error) {
	if err := t.Lock(target); err != nil {
		return nil, err
	}
	*inv = invocation.Invocation{
		Node:   n.ID,
		Target: target,
		Class:  class,
		Method: method,
		Kind:   kind,
		Args:   args,
		Tx:     t,
	}
	return n.chain.Dispatch(inv)
}

func (n *Node) methodKind(ctx context.Context, target object.ID, method string) (object.MethodKind, string, error) {
	e, err := n.Registry.Get(target)
	var class string
	if err == nil {
		class = e.Class()
	} else if n.Repl != nil {
		// No local replica: fetch the class through the replication service.
		remote, _, lerr := n.Repl.Lookup(ctx, target)
		if lerr != nil {
			return 0, "", fmt.Errorf("node %s: resolve %s: %w", n.ID, target, lerr)
		}
		class = remote.Class()
	} else {
		return 0, "", err
	}
	schema, err := n.Registry.Schema(class)
	if err != nil {
		return 0, "", err
	}
	spec, err := schema.Method(method)
	if err != nil {
		return 0, "", err
	}
	return spec.Kind, class, nil
}

// Create materialises a new replicated entity in its own transaction,
// validating the class's hard invariants (constructors are constrained by
// invariants, §2.3.1). With replication disabled the entity is local.
func (n *Node) Create(class string, id object.ID, attrs object.State, info replication.Info) error {
	return n.CreateCtx(context.Background(), class, id, attrs, info)
}

// CreateCtx is Create bounded by the caller's context.
func (n *Node) CreateCtx(ctx context.Context, class string, id object.ID, attrs object.State, info replication.Info) error {
	b := opBlocks.Get().(*opBlock)
	n.TxMgr.BeginInto(ctx, &b.Tx)
	return b.end(n.CreateTx(&b.Tx, class, id, attrs, info))
}

// CreateTx materialises a new entity within an existing transaction.
func (n *Node) CreateTx(t *tx.Tx, class string, id object.ID, attrs object.State, info replication.Info) error {
	e := object.New(class, id, attrs)
	if err := t.Lock(id); err != nil {
		return err
	}
	if n.Repl != nil {
		if err := n.Repl.Create(t, e, info); err != nil {
			return err
		}
	} else {
		if err := n.Registry.Add(e); err != nil {
			return err
		}
		t.RecordCreate(n.Registry, id)
	}
	if n.CCM != nil {
		if err := n.CCM.ValidateNew(t, e); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes an entity in its own transaction.
func (n *Node) Delete(id object.ID) error {
	return n.DeleteCtx(context.Background(), id)
}

// DeleteCtx is Delete bounded by the caller's context. A node outside the
// object's replica group forwards the delete to the coordinator, like a
// routed write; group members delete locally as before.
func (n *Node) DeleteCtx(ctx context.Context, id object.ID) error {
	if n.Repl != nil && !n.Repl.HasLocalReplica(id) {
		coord, err := n.Repl.Coordinator(id)
		if err != nil {
			return err
		}
		if coord != n.ID {
			_, err := n.net.Send(ctx, n.ID, coord, msgDelete, id)
			return err
		}
	}
	b := opBlocks.Get().(*opBlock)
	n.TxMgr.BeginInto(ctx, &b.Tx)
	return b.end(n.DeleteTx(&b.Tx, id))
}

// DeleteTx removes an entity within an existing transaction.
func (n *Node) DeleteTx(t *tx.Tx, id object.ID) error {
	if err := t.Lock(id); err != nil {
		return err
	}
	if n.Repl != nil {
		return n.Repl.Delete(t, id)
	}
	e, err := n.Registry.Get(id)
	if err != nil {
		return err
	}
	if err := n.Registry.Remove(id); err != nil {
		return err
	}
	t.RecordDelete(n.Registry, e)
	return nil
}

// GMS returns the group membership service the node is attached to.
func (n *Node) GMS() *group.Membership { return n.gms }

// Mode returns the node's major system state.
func (n *Node) Mode() core.Mode {
	if n.CCM != nil {
		return n.CCM.Mode()
	}
	if n.gms.Degraded(n.ID) {
		return core.Degraded
	}
	return core.Healthy
}

// Cluster wires several uniformly configured nodes over one network.
type Cluster struct {
	Net   *transport.Network
	GMS   *group.Membership
	Nodes []*Node
	Obs   *obs.Observer   // process-wide scope shared by network and nodes
	Ring  *placement.Ring // shared sharded placement, nil under full replication

	byID map[transport.NodeID]*Node
}

// ClusterOption tweaks the per-node options.
type ClusterOption func(*Options)

// NewCluster creates size nodes named n1..nN on a fresh network.
func NewCluster(size int, netOpts []transport.Option, opts ...ClusterOption) (*Cluster, error) {
	// Run the per-node options through a probe first: the shared observability
	// scope must exist before the network is created so one registry covers
	// transport and all nodes. Caller-supplied netOpts still win (they apply
	// after ours).
	probe := Options{}
	for _, fn := range opts {
		fn(&probe)
	}
	base := probe.Obs
	if base == nil {
		base = obs.New()
	}
	net := transport.NewNetwork(append([]transport.Option{transport.WithObserver(base)}, netOpts...)...)
	ids := make([]transport.NodeID, size)
	for i := 0; i < size; i++ {
		ids[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
		if err := net.Join(ids[i]); err != nil {
			return nil, err
		}
	}
	var gmsOpts []group.Option
	if probe.Detect != nil {
		// Detector-driven membership: views come from each node's failure
		// detector rather than the topology oracle.
		gmsOpts = append(gmsOpts, group.WithDetector())
	}
	gms := group.NewMembership(net, gmsOpts...)
	c := &Cluster{Net: net, GMS: gms, Obs: base, byID: make(map[transport.NodeID]*Node, size)}
	if probe.Groups > 0 {
		// One ring shared by every node: all placement decisions across the
		// cluster agree by construction.
		ring, err := placement.New(ids, placement.Config{
			Groups:            probe.Groups,
			ReplicationFactor: probe.ReplicationFactor,
		})
		if err != nil {
			return nil, err
		}
		c.Ring = ring
	}
	for _, id := range ids {
		o := Options{ID: id, Net: net, GMS: gms}
		for _, fn := range opts {
			fn(&o)
		}
		// Per-node identity is fixed; an option may wrap the node's view of
		// the network (a wrapper that meters what the node sends).
		o.ID, o.GMS = id, gms
		o.Obs = base
		if c.Ring != nil {
			o.Placement = c.Ring
		}
		nd, err := New(o)
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, nd)
		c.byID[id] = nd
	}
	return c, nil
}

// Node returns the i-th node (0-based).
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// ByID returns a node by its ID.
func (c *Cluster) ByID(id transport.NodeID) *Node { return c.byID[id] }

// IDs returns all node IDs in order.
func (c *Cluster) IDs() []transport.NodeID {
	ids := make([]transport.NodeID, len(c.Nodes))
	for i, n := range c.Nodes {
		ids[i] = n.ID
	}
	return ids
}

// AllReplicas is a convenience Info placing an object on every node with the
// given home.
func (c *Cluster) AllReplicas(home transport.NodeID) replication.Info {
	return replication.Info{Home: home, Replicas: c.IDs()}
}

// Partition splits the network.
func (c *Cluster) Partition(groups ...[]transport.NodeID) { c.Net.Partition(groups...) }

// Heal repairs all partitions.
func (c *Cluster) Heal() { c.Net.Heal() }

// Stop shuts down background services on every node. Clusters running
// failure detectors must be stopped when the scenario ends; oracle-driven
// clusters tolerate it as a no-op.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Stop()
	}
}
