// Package object provides the data model of a DeDiSys distributed object
// system: attribute-based entities with monotonically increasing versions,
// per-class schemas with method tables, and a per-node object registry.
//
// Entities deliberately store their state as a list of named attributes
// rather than in struct fields. This mirrors the role of EJB entity beans
// with container managed persistence in the original prototype: the
// middleware (replication, undo logging, reconciliation) can snapshot,
// transfer, and restore entity state generically, while applications
// interact through registered methods. The middleware holds and ships the
// attributes as an Attrs, a name-sorted list; applications build and receive
// them as a State, a map.
package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"dedisys/internal/transport"
)

// ID uniquely identifies a logical object across the whole system. All
// replicas of one logical entity share the same ID.
type ID string

// Common errors returned by the object layer.
var (
	// ErrNotFound reports that no entity with the requested ID is registered.
	ErrNotFound = errors.New("object: entity not found")
	// ErrNoSuchMethod reports that a class schema has no method of that name.
	ErrNoSuchMethod = errors.New("object: no such method")
	// ErrNoSuchClass reports that no schema is registered for a class.
	ErrNoSuchClass = errors.New("object: no such class")
	// ErrDuplicate reports an attempt to register an already registered entity.
	ErrDuplicate = errors.New("object: duplicate entity")
	// ErrNoSuchAttribute reports access to an attribute absent from the entity.
	ErrNoSuchAttribute = errors.New("object: no such attribute")
)

// State is an entity's attributes as a map: the form applications build and
// receive (New, a node's Create, Snapshot, a conflict resolver's states).
// A value is one of the kinds the wire form carries, so that it can be
// replicated and stored: nil, bool, string, int, int64, float64, ID, []ID
// and []string. A state holding any other kind fails the store write that
// meets it, and a batch carrying it falls back to gob. Inside the middleware
// the attributes are an Attrs; AttrsOf and Attrs.Map convert at that edge.
type State map[string]any

// Clone returns a deep copy of the state. Reference slices are copied.
func (s State) Clone() State {
	if s == nil {
		return nil
	}
	out := make(State, len(s))
	for k, v := range s {
		out[k] = copyValue(v)
	}
	return out
}

// copyValue returns v with a reference or string list copied, so that the
// copy and the original share no memory anybody may write; the copy has no
// spare capacity, so an append to it never writes where another list reads.
func copyValue(v any) any {
	switch vv := v.(type) {
	case []ID:
		return copyList(vv)
	case []string:
		return copyList(vv)
	default:
		return v
	}
}

func copyList[S ~string](list []S) []S {
	cp := make([]S, len(list))
	copy(cp, list)
	return cp
}

// AppendWire appends the bytes Attrs.AppendWire writes for the same
// attributes, without building the list; it declines, returning dst, a value
// of a kind the form does not carry (see State).
func (s State) AppendWire(dst []byte) ([]byte, bool) {
	var buf [8]string
	keys := buf[:0]
	for k := range s {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := transport.AppendWireMapLen(dst, len(s), s == nil)
	for _, k := range keys {
		var ok bool
		if out, ok = appendWireValue(transport.AppendWireString(out, k), s[k]); !ok {
			return dst, false
		}
	}
	return out, true
}

// ReadWire decodes what AppendWire (or Attrs' or Entity's) wrote into a state
// of the caller's own; an empty one comes back nil, as from ReadAttrsWire.
func (s *State) ReadWire(r *transport.WireReader) {
	*s = nil
	if a := ReadAttrsWire(r); a != nil {
		*s = a.Map()
	}
}

// Attr is one attribute of an entity: its name and its value.
type Attr struct {
	Name  string
	Value any
}

// Attrs is an entity's attributes in the one form the middleware holds,
// shares and ships them in (entity, undo record, message, replica record,
// history entry): a list sorted by name in byte order, each name once. A
// State costs a map of at least 336 bytes whatever it holds; an Attrs costs
// 32 bytes per attribute and one allocation.
//
// An Attrs is written only by the code that built it, and only until it is
// published: once it has been handed to an entity (Restore, ApplyState), taken
// from one (Share), or put in an undo record, a message, a record or a history
// entry, nobody writes it again — nested slices included — so all holders
// share the one list. Whoever needs another list builds a new one; Entity.Set
// does that by itself. nil and an empty list stay apart where an Attrs is
// encoded, as a map's nil and empty did; a decoder, like gob, gives nil for
// both.
type Attrs []Attr

// AttrsOf returns s as an Attrs of its own: sorted, reference and string
// lists copied. nil gives nil, an empty map an empty list.
func AttrsOf(s State) Attrs {
	if s == nil {
		return nil
	}
	a := make(Attrs, 0, len(s))
	for k, v := range s {
		a = append(a, Attr{Name: k, Value: copyValue(v)})
	}
	slices.SortFunc(a, func(x, y Attr) int { return strings.Compare(x.Name, y.Name) })
	return a
}

// Map returns the attributes as a State of the caller's own, reference and
// string lists copied; never nil, so that an entity created with no
// attributes reads the same on every replica whatever its list went through.
func (a Attrs) Map() State {
	s := make(State, len(a))
	for _, at := range a {
		s[at.Name] = copyValue(at.Value)
	}
	return s
}

// Get returns the named attribute's value and whether it is present.
func (a Attrs) Get(name string) (any, bool) {
	if i, ok := a.index(name); ok {
		return a[i].Value, true
	}
	return nil, false
}

// Sorted reports whether the names strictly ascend, as in every Attrs the
// middleware builds. A list gob decoded is what its sender wrote, in any
// order; ReadAttrsWire checks the order by itself.
func (a Attrs) Sorted() bool {
	for i := 1; i < len(a); i++ {
		if a[i-1].Name >= a[i].Name {
			return false
		}
	}
	return true
}

// index returns where name is in a, or where it would go.
func (a Attrs) index(name string) (int, bool) {
	return slices.BinarySearchFunc(a, name, func(at Attr, name string) int { return strings.Compare(at.Name, name) })
}

// with returns a new list that is a with the named attribute set to value,
// in one allocation sized for an insert when the name is new; a is left as
// it was.
func (a Attrs) with(name string, value any) Attrs {
	i, found := a.index(name)
	rest := a[i:]
	if found {
		rest = a[i+1:]
	}
	out := make(Attrs, i+1+len(rest))
	copy(out, a[:i])
	out[i] = Attr{Name: name, Value: value}
	copy(out[i+1:], rest)
	return out
}

// Value kinds of the attributes' wire form: one byte in front of every
// attribute value, naming its exact dynamic type so that it comes back as
// what it was (an int stays an int, an ID an ID).
const (
	wireNil byte = iota
	wireFalse
	wireTrue
	wireString
	wireInt
	wireInt64
	wireFloat64
	wireID
	wireIDs
	wireStrings
)

// AppendWire appends the attributes' wire form (see transport.WirePayload;
// an Attrs travels inside replication messages and records): a map header
// (nil and empty stay apart), then name, kind byte and value per attribute in
// list order. It carries exactly the kinds State names and declines anything
// else, returning dst; ReadAttrsWire is its inverse.
func (a Attrs) AppendWire(dst []byte) ([]byte, bool) {
	out := transport.AppendWireMapLen(dst, len(a), a == nil)
	for _, at := range a {
		var ok bool
		if out, ok = appendWireValue(transport.AppendWireString(out, at.Name), at.Value); !ok {
			return dst, false
		}
	}
	return out, true
}

// appendWireValue appends one attribute value's kind byte and value, or
// reports false for a kind the form does not carry.
func appendWireValue(out []byte, value any) ([]byte, bool) {
	switch v := value.(type) {
	case nil:
		return append(out, wireNil), true
	case bool:
		if v {
			return append(out, wireTrue), true
		}
		return append(out, wireFalse), true
	case string:
		return transport.AppendWireString(append(out, wireString), v), true
	case int:
		return binary.AppendVarint(append(out, wireInt), int64(v)), true
	case int64:
		return binary.AppendVarint(append(out, wireInt64), v), true
	case float64:
		return binary.BigEndian.AppendUint64(append(out, wireFloat64), math.Float64bits(v)), true
	case ID:
		return transport.AppendWireString(append(out, wireID), string(v)), true
	case []ID:
		return appendWireStrings(append(out, wireIDs), v), true
	case []string:
		return appendWireStrings(append(out, wireStrings), v), true
	default:
		return out, false
	}
}

func appendWireStrings[S ~string](dst []byte, list []S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(list)))
	for _, s := range list {
		dst = transport.AppendWireString(dst, string(s))
	}
	return dst
}

// ReadAttrsWire decodes what AppendWire wrote into a list of its own: the
// receiver installs it by reference, so nothing is shared with the reader or
// with any other message. Attribute names go through the link's name table,
// values never do. Malformed input fails the reader, and so does a name that
// does not follow the one before it in byte order: the list is no Attrs.
// It installs what gob would have: an empty list or state comes back nil.
func ReadAttrsWire(r *transport.WireReader) Attrs {
	n, _ := r.MapLen(2) // an attribute is at least a name length and a kind
	if n == 0 {
		return nil
	}
	a := make(Attrs, n)
	for i := range a {
		at := &a[i]
		if at.Name = r.Name(); i > 0 && at.Name <= a[i-1].Name {
			r.Fail("object: attribute %q after %q", at.Name, a[i-1].Name)
		}
		switch kind := r.Byte(); kind {
		case wireNil:
		case wireFalse:
			at.Value = false
		case wireTrue:
			at.Value = true
		case wireString:
			at.Value = r.String()
		case wireInt:
			at.Value = int(r.Varint())
		case wireInt64:
			at.Value = r.Varint()
		case wireFloat64:
			at.Value = math.Float64frombits(r.Uint64())
		case wireID:
			at.Value = ID(r.String())
		case wireIDs:
			at.Value = readWireStrings[ID](r)
		case wireStrings:
			at.Value = readWireStrings[string](r)
		default:
			r.Fail("object: unknown state value kind %d", kind)
		}
		if r.Err() != nil {
			return nil
		}
	}
	return a
}

func readWireStrings[S ~string](r *transport.WireReader) []S {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	list := make([]S, n)
	for i := range list {
		list[i] = S(r.String())
	}
	return list
}

// Entity is one replica of a logical object, and its own lock: mu covers
// version, attrs and shared and is taken inside every accessor, so one call —
// a read, a Set, a remote install (ApplyState), a table export (Share) — is
// atomic against every other, whichever goroutine makes it. That is all it
// guarantees. A sequence of calls that must not interleave with another
// transaction of the node still needs the transaction layer's object lock
// (isolation), and a remote install is ordered against other installs by the
// replication manager's lock, not by this one. mu is a leaf: nothing outside
// this package is called while it is held, so it nests under any other lock.
// id and class never change and are read without it.
//
// The attribute list is copy-on-write. While shared is false the list is the
// entity's own and Set replaces a present attribute's value in place. Share,
// Restore, ApplyState and Clone set the mark: from then on the same list is
// also held by an undo record, a message in flight, another node's replica
// or a history entry, which read it without any lock, so the next Set builds
// a new list and leaves the published one as it was.
type Entity struct {
	id    ID
	class string

	mu      sync.Mutex
	version int64
	attrs   Attrs
	shared  bool // attrs is published (see Attrs): Set must not write it
}

// New creates an entity of the given class with initial attributes.
// The initial version is 1 so that "unreplicated/unknown" can use zero.
func New(class string, id ID, attrs State) *Entity {
	return &Entity{id: id, class: class, version: 1, attrs: AttrsOf(attrs)}
}

// ID returns the logical object identifier.
func (e *Entity) ID() ID { return e.id }

// Class returns the entity's class name.
func (e *Entity) Class() string { return e.class }

// Version returns the entity's update counter. Every successful attribute
// mutation increments it by one.
func (e *Entity) Version() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version
}

// Get returns the named attribute value.
func (e *Entity) Get(name string) (any, error) {
	e.mu.Lock()
	v, ok := e.attrs.Get(name)
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, e.class, name)
	}
	return v, nil
}

// MustGet returns the named attribute or nil if absent. It is a convenience
// for constraint code that treats missing attributes as zero values.
func (e *Entity) MustGet(name string) any {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, _ := e.attrs.Get(name)
	return v
}

// GetString returns a string attribute, or "" if absent or non-string.
func (e *Entity) GetString(name string) string {
	s, _ := e.MustGet(name).(string)
	return s
}

// GetInt returns an integer attribute, accepting int, int64 and float64
// representations.
func (e *Entity) GetInt(name string) int64 {
	switch v := e.MustGet(name).(type) {
	case int:
		return int64(v)
	case int64:
		return v
	case float64:
		return int64(v)
	default:
		return 0
	}
}

// GetRef returns an object reference attribute, or "" if absent.
func (e *Entity) GetRef(name string) ID {
	switch v := e.MustGet(name).(type) {
	case ID:
		return v
	case string:
		return ID(v)
	default:
		return ""
	}
}

// Set updates one attribute and bumps the version. On an entity whose list
// is its own it replaces a present attribute's value in place; otherwise —
// the list is shared, or the name is new — it builds the new list in one
// allocation, so a published list is left as it was.
func (e *Entity) Set(name string, value any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i, ok := e.attrs.index(name); ok && !e.shared {
		e.attrs[i].Value = value
	} else {
		e.attrs, e.shared = e.attrs.with(name, value), false
	}
	e.version++
}

// Snapshot returns the entity's attributes as a State private to the caller:
// the form for state that leaves for code outside the sharing rules (see
// Attrs), such as application code.
func (e *Entity) Snapshot() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.attrs.Map()
}

// Share returns the entity's attributes without copying them, and the version
// they belong to, and marks the entity shared, so the returned list stays as
// it is now: the entity's next Set builds a new one. The result is published
// (see Attrs) — read it, never write it. Attributes and version leave in one
// call so that no install or Set can come between the two.
func (e *Entity) Share() (Attrs, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shared = true
	return e.attrs, e.version
}

// Written reports whether a Set changed the entity since its attributes were
// last published (Share, Restore, ApplyState, Clone): only Set makes the list
// the entity's own again.
func (e *Entity) Written() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.shared
}

// AppendWire writes the entity's attributes, its record in the store, from
// the list Share made read-only: it encodes after the lock, copying nothing.
func (e *Entity) AppendWire(dst []byte) ([]byte, bool) {
	a, _ := e.Share()
	return a.AppendWire(dst)
}

// Restore replaces the entity's attributes and version, used by undo logging
// and replica state transfer. The entity adopts a by reference and marks
// itself shared: a is published by this call (see Attrs), the caller may keep
// reading it and must not write it afterwards.
func (e *Entity) Restore(a Attrs, version int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attrs, e.shared = a, true
	e.version = version
}

// ApplyState overwrites attributes with a but, unlike Restore, keeps the
// larger of the current and supplied version. Used when applying propagated
// updates that may arrive out of order during reconciliation. Like Restore it
// adopts a by reference and marks the entity shared.
func (e *Entity) ApplyState(a Attrs, version int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attrs, e.shared = a, true
	if version > e.version {
		e.version = version
	}
}

// Clone returns an independent copy of the entity (same ID and class), built
// field by field: an Entity holds a lock and is never copied by value. The
// two share the attribute list, both marked shared, so either one's next Set
// builds a list of its own.
func (e *Entity) Clone() *Entity {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shared = true
	return &Entity{id: e.id, class: e.class, version: e.version, attrs: e.attrs, shared: true}
}

// MethodKind classifies methods for the replication layer: write methods
// trigger update propagation, read methods may execute on any replica.
type MethodKind int

// Method kinds. Per the EJB-style convention of the paper, methods whose
// names start with "Set" are writes; schemas may override explicitly.
const (
	Read MethodKind = iota + 1
	Write
)

// Method is the implementation of one business method. It runs with the
// entity's lock held by the surrounding transaction.
type Method func(e *Entity, args []any) (any, error)

// MethodSpec describes one method of a class.
type MethodSpec struct {
	Name string
	Kind MethodKind
	Fn   Method
}

// Schema describes a class: its name and the method table.
type Schema struct {
	Class   string
	methods map[string]MethodSpec
}

// NewSchema creates an empty schema for a class.
func NewSchema(class string) *Schema {
	return &Schema{Class: class, methods: make(map[string]MethodSpec)}
}

// Define registers a method. Kind defaults from the name: a "Set" or "Add"
// or "Remove" prefix means Write, everything else Read.
func (s *Schema) Define(name string, fn Method) *Schema {
	kind := Read
	if isWriteName(name) {
		kind = Write
	}
	s.methods[name] = MethodSpec{Name: name, Kind: kind, Fn: fn}
	return s
}

// DefineKind registers a method with an explicit kind, overriding the naming
// convention (e.g. the paper's "empty method" that is treated as a write to
// be on the safe side).
func (s *Schema) DefineKind(name string, kind MethodKind, fn Method) *Schema {
	s.methods[name] = MethodSpec{Name: name, Kind: kind, Fn: fn}
	return s
}

// Method looks up a method spec by name.
func (s *Schema) Method(name string) (MethodSpec, error) {
	m, ok := s.methods[name]
	if !ok {
		return MethodSpec{}, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, s.Class, name)
	}
	return m, nil
}

func isWriteName(name string) bool {
	for _, prefix := range [...]string{"Set", "Add", "Remove", "Sell", "Cancel", "Book"} {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// Registry holds the entities materialised on one node together with the
// class schemas. It is safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	schemas  map[string]*Schema
	entities map[ID]*Entity
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		schemas:  make(map[string]*Schema),
		entities: make(map[ID]*Entity),
	}
}

// RegisterSchema installs a class schema. Re-registering a class replaces it.
func (r *Registry) RegisterSchema(s *Schema) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.schemas[s.Class] = s
}

// Schema returns the schema for a class.
func (r *Registry) Schema(class string) (*Schema, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.schemas[class]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchClass, class)
	}
	return s, nil
}

// Add materialises an entity on this node.
func (r *Registry) Add(e *Entity) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entities[e.ID()]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, e.ID())
	}
	r.entities[e.ID()] = e
	return nil
}

// Get returns the entity with the given ID.
func (r *Registry) Get(id ID) (*Entity, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entities[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return e, nil
}

// Remove deletes the entity with the given ID.
func (r *Registry) Remove(id ID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entities[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(r.entities, id)
	return nil
}

// Has reports whether the entity is materialised on this node.
func (r *Registry) Has(id ID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entities[id]
	return ok
}

// OfClass returns all entities of a class, sorted by ID. This backs
// query-style constraints whose validation starts from a set of objects.
func (r *Registry) OfClass(class string) []*Entity {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Entity
	for _, e := range r.entities {
		if e.Class() == class {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Len returns the number of materialised entities.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entities)
}

// IDs returns all materialised entity IDs, sorted.
func (r *Registry) IDs() []ID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]ID, 0, len(r.entities))
	for id := range r.entities {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
