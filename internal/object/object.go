// Package object provides the data model of a DeDiSys distributed object
// system: attribute-based entities with monotonically increasing versions,
// per-class schemas with method tables, and a per-node object registry.
//
// Entities deliberately store their state in an attribute map rather than in
// struct fields. This mirrors the role of EJB entity beans with container
// managed persistence in the original prototype: the middleware (replication,
// undo logging, reconciliation) can snapshot, transfer, and restore entity
// state generically, while applications interact through registered methods.
package object

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"dedisys/internal/persistence"
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

// State is a snapshot of an entity's attributes. Values are restricted to
// JSON-representable scalars plus []ID references so that snapshots can be
// serialized for replication and persistence.
//
// A State is written only by the code that built it, and only until it is
// published: once it has been handed to an entity (Restore, ApplyState), taken
// from one (Share), or put in an undo record, a message, a record or a history
// entry, nobody writes it again — nested slices included — so all holders
// share the one map. Whoever needs to change a published State copies it
// first (Clone); Entity.Set does that by itself.
type State map[string]any

// Clone returns a deep copy of the state. Reference slices are copied.
func (s State) Clone() State {
	if s == nil {
		return nil
	}
	out := make(State, len(s))
	for k, v := range s {
		switch vv := v.(type) {
		case []ID:
			cp := make([]ID, len(vv))
			copy(cp, vv)
			out[k] = cp
		case []string:
			cp := make([]string, len(vv))
			copy(cp, vv)
			out[k] = cp
		default:
			out[k] = v
		}
	}
	return out
}

// AppendJSON appends the state's JSON encoding to dst, byte for byte what
// encoding/json writes for the same data held as a plain map[string]any (keys
// in byte order, its string escaping), without the reflection or the boxing
// of every key and value: entity state is in every replica's record, the
// store write each replica makes per replicated commit. The value kinds State
// documents are written directly;
// any other value goes through json.Marshal by itself. On error dst is
// returned as it came.
func (s State) AppendJSON(dst []byte) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	var buf [8]string
	out := append(dst, '{')
	for i, k := range s.sortedKeys(buf[:0]) {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(persistence.AppendString(out, k), ':')
		switch v := s[k].(type) {
		case nil:
			out = append(out, "null"...)
		case bool:
			out = strconv.AppendBool(out, v)
		case string:
			out = persistence.AppendString(out, v)
		case int:
			out = strconv.AppendInt(out, int64(v), 10)
		case int64:
			out = strconv.AppendInt(out, v, 10)
		case ID:
			out = persistence.AppendString(out, string(v))
		case []ID:
			out = appendStrings(out, v)
		case []string:
			out = appendStrings(out, v)
		default: // float64 after a JSON round trip, nested values
			b, err := json.Marshal(v)
			if err != nil {
				return dst, err
			}
			out = append(out, b...)
		}
	}
	return append(out, '}'), nil
}

// sortedKeys appends the attribute names to buf in byte order, the order both
// encoders write them in so that equal states give equal bytes. buf is the
// caller's stack space for the usual handful of attributes.
func (s State) sortedKeys(buf []string) []string {
	for k := range s {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// appendStrings appends a reference or string list as a JSON array, null for
// a nil one as encoding/json has it.
func appendStrings[S ~string](dst []byte, list []S) []byte {
	if list == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = persistence.AppendString(dst, string(s))
	}
	return append(dst, ']')
}

// MarshalJSON is AppendJSON for encoding/json, which needs it where a State
// nests in a message or record that json.Marshal encodes.
func (s State) MarshalJSON() ([]byte, error) {
	return s.AppendJSON(make([]byte, 0, 2+32*len(s)))
}

// Value kinds of a State's wire form: one byte in front of every attribute
// value, naming its exact dynamic type so that it comes back as what it was
// (an int stays an int, an ID an ID).
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

// AppendWire appends the state's form on the real wire (see
// transport.WirePayload; a State travels inside the replication messages, it
// is no payload of its own): a map header (nil and empty stay apart), then
// name, kind byte and value per attribute in sortedKeys order. It
// carries exactly the kinds AppendJSON names; for a state holding anything
// else it reports false and returns dst as it came, and the message goes
// through gob. ReadStateWire is its inverse.
func (s State) AppendWire(dst []byte) ([]byte, bool) {
	var buf [8]string
	out := transport.AppendWireMapLen(dst, len(s), s == nil)
	for _, k := range s.sortedKeys(buf[:0]) {
		out = transport.AppendWireString(out, k)
		switch v := s[k].(type) {
		case nil:
			out = append(out, wireNil)
		case bool:
			if v {
				out = append(out, wireTrue)
			} else {
				out = append(out, wireFalse)
			}
		case string:
			out = transport.AppendWireString(append(out, wireString), v)
		case int:
			out = binary.AppendVarint(append(out, wireInt), int64(v))
		case int64:
			out = binary.AppendVarint(append(out, wireInt64), v)
		case float64:
			out = binary.BigEndian.AppendUint64(append(out, wireFloat64), math.Float64bits(v))
		case ID:
			out = transport.AppendWireString(append(out, wireID), string(v))
		case []ID:
			out = appendWireStrings(append(out, wireIDs), v)
		case []string:
			out = appendWireStrings(append(out, wireStrings), v)
		default:
			return dst, false
		}
	}
	return out, true
}

func appendWireStrings[S ~string](dst []byte, list []S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(list)))
	for _, s := range list {
		dst = transport.AppendWireString(dst, string(s))
	}
	return dst
}

// ReadStateWire decodes what AppendWire wrote into a State of its own: the
// receiver installs it by reference, so nothing is shared with the reader or
// with any other message. Attribute names go through the link's name table,
// values never do. Malformed input fails the reader. It installs what gob
// would have: an empty map stays empty, an empty list comes back nil.
func ReadStateWire(r *transport.WireReader) State {
	n, isNil := r.MapLen(2) // an attribute is at least a name length and a kind
	if isNil {
		return nil
	}
	s := make(State, n)
	for ; n > 0 && r.Err() == nil; n-- {
		k := r.Name()
		switch kind := r.Byte(); kind {
		case wireNil:
			s[k] = nil
		case wireFalse:
			s[k] = false
		case wireTrue:
			s[k] = true
		case wireString:
			s[k] = r.String()
		case wireInt:
			s[k] = int(r.Varint())
		case wireInt64:
			s[k] = r.Varint()
		case wireFloat64:
			s[k] = math.Float64frombits(r.Uint64())
		case wireID:
			s[k] = ID(r.String())
		case wireIDs:
			s[k] = readWireStrings[ID](r)
		case wireStrings:
			s[k] = readWireStrings[string](r)
		default:
			r.Fail("object: unknown state value kind %d", kind)
		}
	}
	return s
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
// The attribute map is copy-on-write. While shared is false the map is the
// entity's own and Set writes it in place. Share, Restore and ApplyState set
// the mark: from then on the same map is also held by an undo record, a
// message in flight, another node's replica or a history entry, which read it
// without any lock, so the next Set copies the map first and writes the copy.
type Entity struct {
	id    ID
	class string

	mu      sync.Mutex
	version int64
	attrs   State
	shared  bool // attrs is published (see State): Set must copy before writing
}

// New creates an entity of the given class with initial attributes.
// The initial version is 1 so that "unreplicated/unknown" can use zero.
func New(class string, id ID, attrs State) *Entity {
	return &Entity{id: id, class: class, version: 1, attrs: attrs.Clone()}
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
	v, ok := e.attrs[name]
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
	return e.attrs[name]
}

// GetString returns a string attribute, or "" if absent or non-string.
func (e *Entity) GetString(name string) string {
	s, _ := e.MustGet(name).(string)
	return s
}

// GetInt returns an integer attribute, accepting int, int64 and float64
// representations (the latter appears after JSON round trips).
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

// Set updates one attribute and bumps the version. On an entity whose
// attributes are shared it first replaces them with a private deep copy — the
// one copy a write makes — so the published map is left as it was.
func (e *Entity) Set(name string, value any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shared {
		e.attrs, e.shared = e.attrs.Clone(), false
	}
	e.attrs[name] = value
	e.version++
}

// Snapshot returns a deep copy of the entity's attributes, private to the
// caller: the form for state that leaves for code outside the sharing rules
// (see State), such as application code.
func (e *Entity) Snapshot() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.attrs.Clone()
}

// Share returns the entity's attributes without copying them, and the version
// they belong to, and marks the entity shared, so the returned State stays as
// it is now: the entity's next Set writes a copy. The result is published
// (see State) — read it, never write it. State and version leave in one call
// so that no install or Set can come between the two.
func (e *Entity) Share() (State, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shared = true
	return e.attrs, e.version
}

// AppendJSON encodes the entity as its attribute state, exactly as
// json.Marshal(e.Snapshot()) would, without the copy: the encoder runs after
// the entity's lock is released, on a map that Share has made read-only.
func (e *Entity) AppendJSON(dst []byte) ([]byte, error) {
	st, _ := e.Share()
	return st.AppendJSON(dst)
}

// MarshalJSON is AppendJSON for encoding/json.
func (e *Entity) MarshalJSON() ([]byte, error) {
	st, _ := e.Share()
	return st.MarshalJSON()
}

// Restore replaces the entity's attributes and version, used by undo logging
// and replica state transfer. The entity adopts s by reference and marks
// itself shared: s is published by this call (see State), the caller may keep
// reading it and must not write it afterwards.
func (e *Entity) Restore(s State, version int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attrs, e.shared = s, true
	e.version = version
}

// ApplyState overwrites attributes with s but, unlike Restore, keeps the
// larger of the current and supplied version. Used when applying propagated
// updates that may arrive out of order during reconciliation. Like Restore it
// adopts s by reference and marks the entity shared.
func (e *Entity) ApplyState(s State, version int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attrs, e.shared = s, true
	if version > e.version {
		e.version = version
	}
}

// Clone returns an independent copy of the entity (same ID and class), built
// field by field: an Entity holds a lock and is never copied by value.
func (e *Entity) Clone() *Entity {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Entity{id: e.id, class: e.class, version: e.version, attrs: e.attrs.Clone()}
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
