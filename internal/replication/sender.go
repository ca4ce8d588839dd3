package replication

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// maxQueued bounds the ops waiting in one peer's queue. A batch that would
// take the queue past it is not queued (unless the queue is empty: a batch
// always fits an idle peer) but answered as a failed send, which
// reconciliation repairs, so a threshold round never waits on a stalled peer
// and a stalled peer holds no more than this. A peer that is only slow must
// not reach it: with the two cores saturated by other processes, a
// straggler's lane starved long enough to queue about a thousand ops behind
// two closed-loop writers, and 256 then dropped writes the benchmark's
// convergence check caught.
const maxQueued = 4096

// maxFlights bounds the batches in flight to one peer: the one the queue
// waits behind, and the stragglers later batches overtook (peer.ready).
const maxFlights = 8

// errBacklog answers a batch that found its peer's queue full.
var errBacklog = errors.New("replication: peer queue full")

// peer is the one sender of repl.batch from this node to another: every
// commit's batch and every repair flush's for the peer joins its queue in the
// order their rounds were posted, and the queue leaves in that order, one
// batch in flight at a time. What queues while a batch is in flight leaves,
// when it returns, as one repl.batch (natural batching: no timer, no window),
// and each round then reads its own slice of the ack. A batch that carries
// threats (threatBatch) — a commit's, or a threat change with no ops
// (announce) — travels alone: its adds and removes are ordered within one
// transaction, and no threat change overtakes one posted before it. Delivery
// is therefore FIFO on every transport,
// whatever the receiver's concurrency, and an op never overtakes the create
// it follows.
//
// The one exception is a straggler of applies: a batch that carries only
// applies, no threats, and whose rounds have all released their callers. The
// next batch does not wait for it but leaves beside it, up to maxFlights in
// flight: an apply that arrives after a newer op on its object is a duplicate
// there and lands, so the order of applies does not matter, while a slow send
// nobody waits for would otherwise hold up every commit behind it. Each batch
// in flight has a goroutine of its own, a lane; a lane outlives its batch and
// ships the next, so a peer costs a goroutine per lane, not per round.
//
// No repl.batch handler sends anything (handleBatch applies and answers), so
// two peers' senders facing each other never wait on one another.
type peer struct {
	m  *Manager
	to transport.NodeID

	mu       sync.Mutex
	wake     sync.Cond  // on mu: the head of the queue may leave, or the peer is stopping
	queue    []shipment // waiting, in posting order
	queued   int        // ops in queue
	flights  []*lane    // the lanes with a batch in flight, oldest first
	lanes    int        // lane goroutines
	idle     int        // lanes waiting on wake
	stopping bool       // lanes exit once the queue is empty
}

// shipment is one round's batch for the peer, destination i of r.
type shipment struct {
	r *commitRound
	i int
}

// lane is one goroutine of a peer's sender and what it ships: the lane's own
// between batches, read under the peer's mu by holds and ready.
type lane struct {
	ships []shipment // in flight
	dead  []shipment // taken with a dead context: answered, not sent
}

// peerFor returns the sender to the node, made at its first batch.
func (m *Manager) peerFor(to transport.NodeID) *peer {
	m.peersMu.Lock()
	defer m.peersMu.Unlock()
	p := m.peers[to]
	if p == nil {
		p = &peer{m: m, to: to}
		p.wake.L = &p.mu
		m.peers[to] = p
	}
	return p
}

// post queues destination i of r and, when it can leave now, has a lane ship
// it — a waiting one, or a new one when none waits; otherwise the lane whose
// batch it waits behind ships it next. A batch that finds the queue full is
// answered as a failed send.
func (p *peer) post(r *commitRound, i int) {
	n := len(r.ops(i))
	p.mu.Lock()
	if p.queued > 0 && p.queued+n > maxQueued {
		p.mu.Unlock()
		r.Answer(i, nil, fmt.Errorf("%w: %d ops for %s", errBacklog, n, p.to))
		return
	}
	p.queue = append(p.queue, shipment{r, i})
	p.queued += n
	p.m.backlog.Add(int64(n))
	ready := p.ready()
	wake := ready && p.idle > 0
	if ready && !wake && p.lanes < maxFlights {
		p.lanes++
		p.idle++ // until it first looks at the queue
		p.m.senders.Add(1)
		go p.run(new(lane))
	}
	p.mu.Unlock()
	if wake {
		p.wake.Signal() // after the unlock: the lane it wakes takes mu at once
	}
}

// ready reports whether the head of the queue may leave now: nothing is in
// flight, or every batch in flight is a straggler of applies and there is
// room for one more. Callers hold mu.
func (p *peer) ready() bool {
	if len(p.queue) == 0 || len(p.flights) >= maxFlights {
		return false
	}
	for _, l := range p.flights {
		for _, s := range l.ships {
			if s.r.threats != nil || !s.r.Released() {
				return false
			}
			for k := range s.r.ops(s.i) {
				if s.r.ops(s.i)[k].Kind != opApply {
					return false
				}
			}
		}
	}
	return true
}

// run is a lane: it ships the head of the queue whenever it may leave, until
// the peer is stopped with nothing queued.
func (p *peer) run(l *lane) {
	defer p.m.senders.Done()
	p.mu.Lock()
	p.idle--
	for {
		for !p.ready() {
			if p.stopping && len(p.queue) == 0 {
				p.lanes--
				p.mu.Unlock()
				return
			}
			p.idle++
			p.wake.Wait()
			p.idle--
		}
		p.take(l)
		p.flights = append(p.flights, l)
		p.mu.Unlock()
		for _, s := range l.dead {
			p.m.backlog.Add(-int64(len(s.r.ops(s.i))))
			s.r.Answer(s.i, nil, fmt.Errorf("replication: batch to %s aborted: %w", p.to, s.r.Context().Err()))
		}
		var reply any
		var err error
		if len(l.ships) > 0 {
			reply, err = p.send(l.ships)
		}
		p.mu.Lock()
		for k, f := range p.flights {
			if f == l {
				p.flights = append(p.flights[:k], p.flights[k+1:]...)
				break
			}
		}
		p.mu.Unlock()
		// Out of flights, the batch is the lane's own again, and no caller
		// its answer releases still sees it in flight (holds).
		p.answer(l.ships, reply, err)
		clear(l.ships)
		clear(l.dead)
		l.ships, l.dead = l.ships[:0], l.dead[:0]
		p.mu.Lock()
	}
}

// take moves the head of the queue to the lane — every batch up to the first
// that carries threats, or that one alone — and those whose round's context
// is dead to its dead list. Callers hold mu.
func (p *peer) take(l *lane) {
	ops := 0
	k := 1
	if p.queue[0].r.threats == nil {
		for k < len(p.queue) && p.queue[k].r.threats == nil {
			k++
		}
	}
	for _, s := range p.queue[:k] {
		ops += len(s.r.ops(s.i))
		if s.r.Context().Err() != nil {
			l.dead = append(l.dead, s)
		} else {
			l.ships = append(l.ships, s)
		}
	}
	rest := copy(p.queue, p.queue[k:])
	clear(p.queue[rest:])
	p.queue = p.queue[:rest]
	p.queued -= ops
}

// coalescedBatch is the repl.batch of several rounds that queued for one peer
// together (peer.ship): their batches as the rounds built them, whose ops the
// receiver applies in order as one batch's and answers with one ack.
type coalescedBatch struct {
	Parts []*batchMsg
}

// send sends the shipments as one repl.batch — one round's batch as the
// round built it, under its context; the batches of several in a
// coalescedBatch, under none, each caller being released by its own — and
// takes their ops off the backlog.
func (p *peer) send(ships []shipment) (any, error) {
	ctx, n := context.Background(), 0
	var payload any
	if len(ships) == 1 {
		s := ships[0]
		ctx, payload, n = s.r.Context(), s.r.Payload(s.i), len(s.r.ops(s.i))
	} else {
		b := &coalescedBatch{Parts: make([]*batchMsg, len(ships))}
		for k, s := range ships {
			b.Parts[k] = s.r.Payload(s.i).(*batchMsg) // a threat batch travels alone
			n += len(b.Parts[k].Ops)
		}
		payload = b
	}
	reply, err := p.m.net.Send(ctx, p.m.self, p.to, msgBatch, payload)
	p.m.backlog.Add(-int64(n))
	return reply, err
}

// answer gives each round its outcome of the send: one round the reply as it
// came, several each its slice of the ack.
func (p *peer) answer(ships []shipment, reply any, err error) {
	if len(ships) == 1 {
		ships[0].r.Answer(ships[0].i, reply, err)
		return
	}
	ack, at := ackOf(reply, err), 0
	for _, s := range ships {
		k := len(s.r.ops(s.i))
		s.r.Answer(s.i, ack.part(at, k, reply), err)
		at += k
	}
}

// part is the reply to the k ops from op at of a coalesced batch, whose whole
// reply was whole: the reply itself when it is not an ack, ackAll when they
// all landed, their own results otherwise.
func (a *batchAck) part(at, k int, whole any) any {
	if a == nil {
		return whole
	}
	if len(a.Results) == 0 {
		return ackAll
	}
	res := a.Results[at : at+k]
	for _, c := range res {
		if !c.landed() {
			return &batchAck{Results: res}
		}
	}
	return ackAll
}

// holds reports whether an op on the object is queued or in flight to the
// peer.
func (p *peer) holds(id object.ID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	has := func(ships []shipment) bool {
		for _, s := range ships {
			for k := range s.r.ops(s.i) {
				if s.r.ops(s.i)[k].ID == id {
					return true
				}
			}
		}
		return false
	}
	if has(p.queue) {
		return true
	}
	for _, l := range p.flights {
		if has(l.ships) {
			return true
		}
	}
	return false
}

// queues reports whether an op on the object is queued or in flight to the
// node; a node nothing was ever sent to holds none.
func (m *Manager) queues(to transport.NodeID, id object.ID) bool {
	m.peersMu.Lock()
	p := m.peers[to]
	m.peersMu.Unlock()
	return p != nil && p.holds(id)
}

// Stop joins the propagation in flight (WaitPropagation) and then every
// peer's lanes; a later commit starts a peer's sender again.
func (m *Manager) Stop() {
	m.WaitPropagation()
	m.peersMu.Lock()
	for _, p := range m.peers {
		p.mu.Lock()
		p.stopping = true
		p.wake.Broadcast()
		p.mu.Unlock()
	}
	m.peersMu.Unlock()
	m.senders.Wait()
}
