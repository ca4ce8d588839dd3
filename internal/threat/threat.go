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

// KeyDelta is the transaction-scoped key (tx.Tx.Put) of the threat change a
// transaction made (*Delta), which replication ships at commit.
const KeyDelta = "threat.delta"

// Delta is one change of a threat store, the one shape every threat change
// travels in: the identities removed and the threats added.
type Delta struct {
	Removed []string
	Added   []Threat
}

// AffectedObject pairs an accessed object with its staleness at validation
// time (the gathered affected objects of Figure 4.4).
type AffectedObject struct {
	ID        object.ID
	Class     string
	Staleness constraint.Staleness
	// State optionally captures the object's serialized state at the time
	// the threat occurred (§3.2.2: threat information "can be further
	// enriched by storing ... even the serialized state of affected
	// objects"), enabling richer reconciliation diagnostics.
	State object.State
}

// Threat is one consistency threat: a constraint whose validation was not
// fully reliable (§3.1). Accepted threats are persisted and re-evaluated
// during reconciliation.
type Threat struct {
	// Seq is the unique sequence number assigned by the store.
	Seq int64
	// Constraint is the unique name of the threatened constraint.
	Constraint string
	// ContextID identifies the context object for invariant constraints
	// validated from a starting object; empty for query-based constraints
	// (§3.2.2's two re-evaluation cases).
	ContextID object.ID
	// Degree is the satisfaction degree observed at validation time.
	Degree constraint.Degree
	// Affected lists the objects accessed by the validation.
	Affected []AffectedObject
	// AppData carries application-specific data stored with the threat.
	AppData map[string]string
	// Instructions are the constraint's reconciliation instructions.
	Instructions constraint.ReconciliationInstructions
	// Count is the number of identical occurrences folded into this record
	// (identical-once policy).
	Count int
	// TxID is the transaction that produced the (first) occurrence.
	TxID int64
	// UID identifies the record globally ("<origin-node>#<seq>"): replicated
	// copies keep the originator's UID so repeated propagation (e.g. across
	// several reconciliation passes) never duplicates records.
	UID string
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
// cost model follows §5.2 where a threat is accepted or merged (Add): a new
// threat writes three records (the threat, its affected-object set, and its
// application data), a write each, each additional identical occurrence
// under FullHistory writes two more records, while under IdenticalOnce it
// costs a single read. A removed threat leaves in one write that deletes its
// three records together, so no threat is ever half on disk. A peer's threat
// change that a replicated batch carries (Replicate) is stored in the one
// write that stores the batch, as the prototype's backup applies a commit
// inside the primary's transaction (§4.3). The stored Count is the count at
// storage time: an identical-once fold changes the record in memory only, so
// folds live in memory alone until a node can rebuild its threat store from
// the table.
//
// A record's writes and deletes happen under the store's lock, taken before
// the backing store's, so the table holds exactly the records the store's
// maps name, and a record is encoded while nothing can fold into it. The maps
// change before the write and are taken back when it fails, so a threat that
// fails to store leaves no trace. A stored record owns its affected list; the
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
	steps   []step // what Replicate did until its write returned; it keeps what it grew

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

// Add stores an accepted consistency threat. It returns the stored record
// (with its sequence number) and whether a new persistent record was
// created (false when folded into an identical threat). A new record copies
// t.Affected; a folded occurrence keeps nothing of t. Each of a new record's
// records is a store write of its own (§5.2's cost); when one fails, what
// the others stored is deleted and the maps are taken back, so a threat that
// fails to store leaves no trace.
func (s *Store) Add(t Threat) (Threat, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf [3]persistence.Change
	seq := s.seq
	rec, kind, changes := s.admitLocked(&t, buf[:0])
	steps := []step{{rec, kind}}
	for i := range changes {
		if err := s.backing.Write(changes[i : i+1]); err != nil {
			if i > 0 {
				s.dropRecords(rec.Seq)
			}
			s.takeBack(steps, seq)
			return Threat{}, false, err
		}
	}
	s.counted(steps)
	return *rec, kind == added, nil
}

// admitLocked does to the maps what storing t does and appends a new
// record's changes to changes. A replicated copy whose UID is stored already
// is known, and changes nothing; under IdenticalOnce a threat whose identity
// is stored is folded into the identity's first record, raising its count in
// memory at the price of one read (§5.5.1); any other is added as a new
// record under the next sequence number. It returns the record t is now part
// of and which of the three happened; callers hold s.mu.
func (s *Store) admitLocked(t *Threat, changes []persistence.Change) (*Threat, stepKind, []persistence.Change) {
	if t.UID != "" {
		if seq, ok := s.byUID[t.UID]; ok {
			return s.byID[seq], known, changes
		}
	}
	var ib [64]byte
	ident := t.appendIdentity(ib[:0])
	existing := s.byIdent[string(ident)]
	if s.policy == IdenticalOnce && len(existing) > 0 {
		first := s.byID[existing[0]]
		first.Count++
		var kb [keyCap]byte
		_ = s.backing.Has(table, string(appendKey(kb[:0], first.Seq)))
		return first, folded, changes
	}
	s.seq++
	stored := *t
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
	return &stored, added, stored.appendRecords(changes, len(existing) == 0)
}

// appendRecords appends the changes that store a new record: three for the
// first of its identity, two for a further one under FullHistory (§5.2). The
// affected list, the one record whose encoding can fail, goes first.
func (t *Threat) appendRecords(dst []persistence.Change, first bool) []persistence.Change {
	rec, affected, data := recordKeys(t.Seq)
	dst = append(dst,
		persistence.Change{Table: table, Key: affected, Value: (*affectedList)(&t.Affected)},
		persistence.Change{Table: table, Key: rec, Value: t})
	if first {
		dst = append(dst, persistence.Change{Table: table, Key: data, Value: appData(t.AppData)})
	}
	return dst
}

// step is what one Add or Replicate did to the maps for one threat, kept
// until its write succeeded, for a failed write to take back: the record it
// removed, added, folded into or found known.
type step struct {
	t    *Threat
	kind stepKind
}

type stepKind byte

const (
	removed stepKind = iota
	added
	folded
	known
)

// takeBack undoes steps, last first, and restores the sequence number seq;
// callers hold s.mu.
func (s *Store) takeBack(steps []step, seq int64) {
	for i := len(steps) - 1; i >= 0; i-- {
		switch t := steps[i].t; steps[i].kind {
		case folded:
			t.Count--
		case added:
			s.unlink(t)
		case removed:
			// A removal takes a whole identity, so its records come back
			// in their order.
			s.byID[t.Seq] = t
			if t.UID != "" {
				s.byUID[t.UID] = t.Seq
			}
			ident := t.Identity()
			s.byIdent[ident] = append(s.byIdent[ident], t.Seq)
		}
	}
	s.seq = seq
}

// counted counts what steps did, once their write succeeded.
func (s *Store) counted(steps []step) {
	for _, st := range steps {
		switch st.kind {
		case removed:
			s.removed.Inc()
		case added:
			s.stored.Inc()
		default:
			s.folded.Inc()
		}
	}
}

// forget takes a record out of byID and byUID; callers hold s.mu.
func (s *Store) forget(t *Threat) {
	delete(s.byID, t.Seq)
	if t.UID != "" {
		delete(s.byUID, t.UID)
	}
}

// unlink takes a record out of the maps; callers hold s.mu.
func (s *Store) unlink(t *Threat) {
	s.forget(t)
	ident := t.Identity()
	seqs := s.byIdent[ident]
	if i := slices.Index(seqs, t.Seq); i >= 0 {
		seqs = slices.Delete(seqs, i, i+1)
	}
	if len(seqs) == 0 {
		delete(s.byIdent, ident)
	} else {
		s.byIdent[ident] = seqs
	}
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

// recordKeys returns the keys of threat seq's three records: the threat's,
// its affected list's and its application data's. They are cut from one
// string, so the three cost one allocation: the store may keep a key it is
// handed, so none can live on the caller's stack.
func recordKeys(seq int64) (rec, affected, data string) {
	var kb [2 * keyCap]byte
	k := appendKey(kb[:0], seq)
	n := len(k)
	all := string(append(append(append(k, suffixAffected...), k[:n]...), suffixAppData...))
	return all[:n], all[:n+len(suffixAffected)], all[n+len(suffixAffected):]
}

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
// "remove the threat and all identical threats" step of §3.3), one store
// write per removed threat, and returns the records it removed, ordered by
// sequence, taken under the same hold that removed them.
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
		s.forget(t)
		s.dropRecords(seq)
	}
	s.removed.Add(int64(len(seqs)))
	return removed
}

// Replicate applies a peer's change — its removals, then its additions, each
// under this store's own sequence number and folded as Add folds it — and
// stores it together with with, the other changes of the unit of work that
// carried it (a received batch's replica records), in one write of the
// backing store: the three deletions of each removed threat and the records
// of each new one. The write happens under the store's lock, so the table
// holds exactly the records the maps name, and a write that fails leaves the
// maps as they were. The threat changes are appended to with, whose array
// should have room for three per threat d names.
func (s *Store) Replicate(d Delta, with []persistence.Change) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	steps, seq, changes := slices.Grow(s.steps[:0], len(d.Removed)+len(d.Added)), s.seq, with
	for _, ident := range d.Removed {
		for _, n := range s.byIdent[ident] {
			t := s.byID[n]
			s.forget(t)
			steps = append(steps, step{t, removed})
			changes = appendDrops(changes, t.Seq)
		}
		delete(s.byIdent, ident)
	}
	for i := range d.Added {
		var st step
		st.t, st.kind, changes = s.admitLocked(&d.Added[i], changes)
		steps = append(steps, st)
	}
	err := s.backing.Write(changes)
	if err != nil {
		s.takeBack(steps, seq)
	} else {
		s.counted(steps)
	}
	clear(changes[len(with):])
	clear(steps)
	s.steps = steps[:0]
	return err
}

// dropRecords deletes the three stored records of one threat in one store
// write, all or nothing; callers hold s.mu.
func (s *Store) dropRecords(seq int64) {
	var c [3]persistence.Change
	_ = s.backing.Write(appendDrops(c[:0], seq)) // a deletion encodes nothing, so it cannot fail
}

// appendDrops appends the deletions of threat seq's three records.
func appendDrops(dst []persistence.Change, seq int64) []persistence.Change {
	rec, affected, data := recordKeys(seq)
	return append(dst,
		persistence.Change{Table: table, Key: rec, Delete: true},
		persistence.Change{Table: table, Key: affected, Delete: true},
		persistence.Change{Table: table, Key: data, Delete: true})
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
	s.unlink(t)
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
