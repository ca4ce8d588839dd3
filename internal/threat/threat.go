// Package threat implements consistency threats (§3.1): their
// representation, the negotiation mechanisms deciding whether a threat is
// acceptable (§3.2.1), and the persistent threat store with the two storage
// policies evaluated in §5.5.1 (full history vs. identical threats only
// once).
package threat

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/persistence"
)

// table is the persistence table holding accepted consistency threats.
const table = "threats"

// Transaction-scoped keys (tx.Tx.Put) of the threats a transaction accepted
// ([]Threat) and the identities it cleared ([]string), which its repl.batch
// carries, and of the destinations that batch reached ([]transport.NodeID).
const (
	KeyAccepted = "threat.accepted"
	KeyCleared  = "threat.cleared"
	KeyShipped  = "threat.shipped"
)

// AffectedObject pairs an accessed object with its staleness at validation
// time (the gathered affected objects of Figure 4.4).
type AffectedObject struct {
	ID        object.ID            `json:"id"`
	Class     string               `json:"class"`
	Staleness constraint.Staleness `json:"staleness"`
	// State optionally captures the object's serialized state at the time
	// the threat occurred (§3.2.2: threat information "can be further
	// enriched by storing ... even the serialized state of affected
	// objects"), enabling richer reconciliation diagnostics.
	State object.State `json:"state,omitempty"`
}

// Threat is one consistency threat: a constraint whose validation was not
// fully reliable (§3.1). Accepted threats are persisted and re-evaluated
// during reconciliation.
type Threat struct {
	// Seq is the unique sequence number assigned by the store.
	Seq int64 `json:"seq"`
	// Constraint is the unique name of the threatened constraint.
	Constraint string `json:"constraint"`
	// ContextID identifies the context object for invariant constraints
	// validated from a starting object; empty for query-based constraints
	// (§3.2.2's two re-evaluation cases).
	ContextID object.ID `json:"contextId"`
	// Degree is the satisfaction degree observed at validation time.
	Degree constraint.Degree `json:"degree"`
	// Affected lists the objects accessed by the validation.
	Affected []AffectedObject `json:"affected"`
	// AppData carries application-specific data stored with the threat.
	AppData map[string]string `json:"appData,omitempty"`
	// Instructions are the constraint's reconciliation instructions.
	Instructions constraint.ReconciliationInstructions `json:"instructions"`
	// Count is the number of identical occurrences folded into this record
	// (identical-once policy).
	Count int `json:"count"`
	// TxID is the transaction that produced the (first) occurrence.
	TxID int64 `json:"txId"`
	// UID identifies the record globally ("<origin-node>#<seq>"): replicated
	// copies keep the originator's UID so repeated propagation (e.g. across
	// several reconciliation passes) never duplicates records.
	UID string `json:"uid,omitempty"`
}

// Identity returns the identity key of the threat: two threats are identical
// when they refer to the same constraint and the same context object
// (§3.2.2).
func (t Threat) Identity() string {
	var buf [64]byte
	return string(t.appendIdentity(buf[:0]))
}

// appendIdentity appends the identity to dst: Add looks it up without
// building a string, and builds one only for a new identity.
func (t *Threat) appendIdentity(dst []byte) []byte {
	return append(append(append(dst, t.Constraint...), '|'), t.ContextID...)
}

// StorePolicy selects how identical threats are persisted.
type StorePolicy int

// Store policies.
const (
	// IdenticalOnce stores identical threats once, counting occurrences.
	// Subsequent occurrences cost only a read to detect the duplicate
	// (§5.5.1's optimization).
	IdenticalOnce StorePolicy = iota + 1
	// FullHistory stores every occurrence, enabling rollback/undo-based
	// reconciliation that needs intermediate states.
	FullHistory
)

// String implements fmt.Stringer.
func (p StorePolicy) String() string {
	switch p {
	case IdenticalOnce:
		return "identical-once"
	case FullHistory:
		return "full-history"
	default:
		return fmt.Sprintf("StorePolicy(%d)", int(p))
	}
}

// Store persists accepted consistency threats on one node. The persistence
// cost model follows §5.2: a new threat writes three records (the threat,
// its affected-object set, and its application data), each additional
// identical occurrence under FullHistory writes two more records, while
// under IdenticalOnce it costs a single read.
//
// A record's writes and deletes happen under the store's lock, so the table
// holds exactly the records the store's maps name, and a record is encoded
// while nothing can fold into it. A stored record owns its affected list; the
// only field that changes after it is stored is an identical-once record's
// Count, under the lock.
type Store struct {
	backing *persistence.Store
	obs     *obs.Observer

	mu      sync.Mutex
	owner   string
	policy  StorePolicy
	seq     int64
	byID    map[int64]*Threat
	byIdent map[string][]int64
	byUID   map[string]int64

	stored  *obs.Counter
	folded  *obs.Counter
	removed *obs.Counter
}

// Option configures a Store.
type Option func(*Store)

// WithObserver attaches the threat store to a shared observability scope;
// without it the store observes into a private registry.
func WithObserver(o *obs.Observer) Option {
	return func(s *Store) { s.obs = o }
}

// NewStore creates a threat store with the given policy over the node's
// persistent store.
func NewStore(backing *persistence.Store, policy StorePolicy, opts ...Option) *Store {
	if policy == 0 {
		policy = IdenticalOnce
	}
	s := &Store{
		backing: backing,
		policy:  policy,
		byID:    make(map[int64]*Threat),
		byIdent: make(map[string][]int64),
		byUID:   make(map[string]int64),
	}
	for _, o := range opts {
		o(s)
	}
	if s.obs == nil {
		s.obs = obs.New()
	}
	s.stored = s.obs.Counter("threat.stored")
	s.folded = s.obs.Counter("threat.folded")
	s.removed = s.obs.Counter("threat.removed")
	return s
}

// SetOwner names this store's node; locally created threats are stamped
// with "<owner>#<seq>" UIDs so replicated copies can be deduplicated.
func (s *Store) SetOwner(owner string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.owner = owner
}

// Policy returns the active storage policy.
func (s *Store) Policy() StorePolicy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy
}

// SetPolicy switches the storage policy (experiments toggle this).
func (s *Store) SetPolicy(p StorePolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policy = p
}

// Add stores an accepted consistency threat. It returns the stored record
// (with its sequence number) and whether a new persistent record was
// created (false when folded into an identical threat). A new record copies
// t.Affected; a folded occurrence keeps nothing of t.
func (s *Store) Add(t Threat) (Threat, bool, error) {
	s.mu.Lock()
	// A replicated record that already arrived is folded silently.
	if t.UID != "" {
		if seq, ok := s.byUID[t.UID]; ok {
			copyOf := *s.byID[seq]
			s.mu.Unlock()
			s.folded.Inc()
			return copyOf, false, nil
		}
	}
	var ib [64]byte
	ident := t.appendIdentity(ib[:0])
	existing := s.byIdent[string(ident)]
	if s.policy == IdenticalOnce && len(existing) > 0 {
		first := s.byID[existing[0]]
		first.Count++
		folded := *first
		s.mu.Unlock()
		s.folded.Inc()
		// Detecting the duplicate costs a read on the database (§5.5.1).
		var kb [keyCap]byte
		_ = s.backing.Has(table, string(appendKey(kb[:0], folded.Seq)))
		return folded, false, nil
	}
	defer s.mu.Unlock()
	s.seq++
	stored := t
	stored.Seq = s.seq
	stored.Affected = slices.Clone(t.Affected)
	if stored.Count == 0 {
		stored.Count = 1
	}
	if stored.UID == "" && s.owner != "" {
		var ub [64]byte
		stored.UID = string(strconv.AppendInt(append(append(ub[:0], s.owner...), '#'), stored.Seq, 10))
	}
	s.byID[stored.Seq] = &stored
	s.byIdent[string(ident)] = append(existing, stored.Seq)
	if stored.UID != "" {
		s.byUID[stored.UID] = stored.Seq
	}
	s.stored.Inc()

	// Persist: three records for a first occurrence, two for an additional
	// identical occurrence under FullHistory (§5.2). The store keeps the keys.
	var kb [keyCap]byte
	k := appendKey(kb[:0], stored.Seq)
	if err := s.backing.Put(table, string(k), &stored); err != nil {
		return stored, false, err
	}
	if err := s.backing.Put(table, string(append(k, suffixAffected...)), (*affectedList)(&stored.Affected)); err != nil {
		return stored, false, err
	}
	if len(existing) == 0 {
		if err := s.backing.Put(table, string(append(k, suffixAppData...)), appData(stored.AppData)); err != nil {
			return stored, false, err
		}
	}
	return stored, true, nil
}

// A threat's records are keyed "t%08d" by its sequence number, the threat
// itself, and that key with a suffix for its affected objects and its
// application data. keyCap holds the longest: an int64 of 19 digits and the
// longer suffix.
const (
	suffixAffected = "/affected"
	suffixAppData  = "/appdata"
	keyCap         = 1 + 19 + len(suffixAffected)
)

// appendKey appends the key of the threat record seq (seq >= 0) to dst.
func appendKey(dst []byte, seq int64) []byte {
	dst = append(dst, 't')
	for p := int64(10000000); p > 1 && seq < p; p /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, seq, 10)
}

// All returns all stored threats ordered by sequence number.
func (s *Store) All() []Threat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Threat, 0, len(s.byID))
	for _, t := range s.byID {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Identities returns the distinct threat identities, sorted. Re-evaluation
// during reconciliation happens once per identity (§5.2: "re-evaluation of
// identical threats has to be performed only once").
func (s *Store) Identities() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byIdent))
	for id := range s.byIdent {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ByIdentity returns all threats of one identity, ordered by sequence.
func (s *Store) ByIdentity(ident string) []Threat {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := s.byIdent[ident]
	out := make([]Threat, 0, len(seqs))
	for _, seq := range seqs {
		out = append(out, *s.byID[seq])
	}
	return out
}

// RemoveIdentity deletes a threat and all identical threats (the
// "remove the threat and all identical threats" step of §3.3) and returns
// the records it removed, ordered by sequence, taken under the same hold
// that removed them.
func (s *Store) RemoveIdentity(ident string) []Threat {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := s.byIdent[ident]
	if len(seqs) == 0 {
		return nil
	}
	delete(s.byIdent, ident)
	removed := make([]Threat, 0, len(seqs))
	for _, seq := range seqs {
		t := s.byID[seq]
		removed = append(removed, *t)
		if t.UID != "" {
			delete(s.byUID, t.UID)
		}
		delete(s.byID, seq)
		s.dropRecords(seq)
	}
	s.removed.Add(int64(len(seqs)))
	return removed
}

// Replicate applies a peer's removals, then its additions, each under this
// store's own sequence number.
func (s *Store) Replicate(removed []string, added []Threat) error {
	for _, ident := range removed {
		s.RemoveIdentity(ident)
	}
	for _, t := range added {
		t.Seq = 0
		if _, _, err := s.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// dropRecords deletes the three stored records of one threat; callers hold
// s.mu. The store keeps no key it deletes: the keys stay on the stack.
func (s *Store) dropRecords(seq int64) {
	var kb [keyCap]byte
	k := appendKey(kb[:0], seq)
	s.backing.Delete(table, string(k))
	s.backing.Delete(table, string(append(k, suffixAffected...)))
	s.backing.Delete(table, string(append(k, suffixAppData...)))
}

// Remove deletes a single threat — all three of its stored records — by
// sequence number: the undo of a newly stored threat.
func (s *Store) Remove(seq int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[seq]
	if !ok {
		return
	}
	if t.UID != "" {
		delete(s.byUID, t.UID)
	}
	delete(s.byID, seq)
	ident := t.Identity()
	seqs := s.byIdent[ident]
	for i, v := range seqs {
		if v == seq {
			s.byIdent[ident] = append(seqs[:i], seqs[i+1:]...)
			break
		}
	}
	if len(s.byIdent[ident]) == 0 {
		delete(s.byIdent, ident)
	}
	s.dropRecords(seq)
	s.removed.Inc()
}

// Len returns the number of stored threat records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Clear drops all stored threats.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID = make(map[int64]*Threat)
	s.byIdent = make(map[string][]int64)
	s.byUID = make(map[string]int64)
	s.backing.DropTable(table)
}

// Decision is the outcome of consistency threat negotiation.
type Decision int

// Negotiation decisions.
const (
	Reject Decision = iota + 1
	Accept
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// NegotiationContext carries everything a negotiation handler may inspect
// (Figure 3.3): the constraint, the observed degree, the affected objects
// with staleness, and the partition weight.
type NegotiationContext struct {
	Constraint      constraint.Meta
	Degree          constraint.Degree
	ContextID       object.ID
	Affected        []AffectedObject
	PartitionWeight float64
	// AppData lets the handler attach application data to the stored threat.
	AppData map[string]string
}

// Handler is the dynamic (algorithmic) negotiation callback registered by
// the application with a transaction (§3.2.1).
type Handler func(nc *NegotiationContext) Decision

// Negotiate decides whether to accept a consistency threat, applying the
// dissertation's priority order: a dynamic handler is preferred over the
// static declarative configuration, which is preferred over the
// application-wide default minimum satisfaction degree (§3.2.1).
func Negotiate(nc *NegotiationContext, dynamic Handler, defaultMin constraint.Degree) Decision {
	if dynamic == nil || nc.Constraint.Priority == constraint.NonTradeable {
		return NegotiateStatic(nc, defaultMin)
	}
	return dynamic(nc)
}

// NegotiateStatic is Negotiate without a dynamic handler. It keeps no
// reference to nc, so a caller may build the context on its stack and point
// it at memory that does not outlive the call.
func NegotiateStatic(nc *NegotiationContext, defaultMin constraint.Degree) Decision {
	// Non-tradeable constraints reject automatically (§3.2).
	if nc.Constraint.Priority == constraint.NonTradeable {
		return Reject
	}
	min := nc.Constraint.MinDegree
	if min == 0 {
		min = defaultMin
	}
	if min == 0 {
		min = constraint.Satisfied // no tolerance configured at all
	}
	if nc.Degree < min {
		return Reject
	}
	// Freshness criteria: every affected object of a bounded class must be
	// within its maximum estimated staleness.
	for _, a := range nc.Affected {
		if maxAge, ok := nc.Constraint.FreshnessFor(a.Class); ok && a.Staleness.MissedEstimate() > maxAge {
			return Reject
		}
	}
	return Accept
}
