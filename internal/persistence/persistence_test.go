package persistence

import (
	"encoding/binary"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/transport"
)

// record is a test record in the wire's primitives: a name and a count.
type record struct {
	Name  string
	Count int
}

func (r record) AppendWire(dst []byte) ([]byte, bool) {
	return binary.AppendVarint(transport.AppendWireString(dst, r.Name), int64(r.Count)), true
}

func (r *record) ReadWire(rd *transport.WireReader) {
	*r = record{Name: rd.String(), Count: int(rd.Varint())}
}

// num is a one-varint record.
type num int

func (n num) AppendWire(dst []byte) ([]byte, bool) { return binary.AppendVarint(dst, int64(n)), true }

func (n *num) ReadWire(r *transport.WireReader) { *n = num(r.Varint()) }

// str is a one-string record.
type str string

func (s str) AppendWire(dst []byte) ([]byte, bool) {
	return transport.AppendWireString(dst, string(s)), true
}

func (s *str) ReadWire(r *transport.WireReader) { *s = str(r.String()) }

// counter reads a counter of o's registry; a name nothing registered fails
// the test instead of reading 0.
func counter(t *testing.T, o *obs.Observer, name string) int64 {
	t.Helper()
	v, ok := o.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q registered", name)
	}
	return v
}

// del removes the record at (table, key): a Write of one deletion, which
// encodes nothing and so cannot fail.
func del(s *Store, table, key string) {
	_ = s.Write([]Change{{Table: table, Key: key, Delete: true}})
}

func TestPutGetDelete(t *testing.T) {
	s := NewStore()
	in := record{Name: "threat", Count: 3}
	if err := s.Put("threats", "t1", in); err != nil {
		t.Fatal(err)
	}
	var out record
	if err := s.Get("threats", "t1", &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip = %+v", out)
	}
	if !s.Has("threats", "t1") || s.Has("threats", "t2") {
		t.Fatal("Has wrong")
	}
	del(s, "threats", "t1")
	if err := s.Get("threats", "t1", &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted err = %v", err)
	}
	del(s, "threats", "t1") // idempotent
}

func TestGetMissingTable(t *testing.T) {
	s := NewStore()
	var out record
	if err := s.Get("nope", "k", &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestPutRejectsUnencodable: a state holding a kind its wire form does not
// carry fails the Put and stores nothing.
func TestPutRejectsUnencodable(t *testing.T) {
	s := NewStore()
	if err := s.Put("t", "k", object.State{"ch": make(chan int)}); err == nil || s.Has("t", "k") {
		t.Fatalf("unencodable value: err = %v, stored %v", err, s.Has("t", "k"))
	}
}

// TestGetRejectsMalformedRecords: Get reads a record whole with the wire's
// strict rules — a reader that finds too few bytes, or leaves bytes over,
// fails it.
func TestGetRejectsMalformedRecords(t *testing.T) {
	s := NewStore()
	if err := s.Put("t", "k", record{Name: "n", Count: 1}); err != nil {
		t.Fatal(err)
	}
	var short str
	if err := s.Get("t", "k", &short); err == nil || !strings.Contains(err.Error(), "after the record") {
		t.Fatalf("a reader that leaves bytes over: %v", err)
	}
	if err := s.Put("t", "k", raw("\x05ab")); err != nil {
		t.Fatal(err)
	}
	if err := s.Get("t", "k", &short); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("a record shorter than its string: %v", err)
	}
}

func TestKeysSortedAndLen(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"c", "a", "b"} {
		if err := s.Put("t", k, num(1)); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys("t")
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
	if s.Len("t") != 3 || s.Len("empty") != 0 {
		t.Fatalf("len = %d", s.Len("t"))
	}
	s.DropTable("t")
	if s.Len("t") != 0 {
		t.Fatal("drop did not clear table")
	}
}

func TestStats(t *testing.T) {
	o := obs.New()
	s := NewStore(WithObserver(o))
	if err := s.Put("t", "k", num(1)); err != nil {
		t.Fatal(err)
	}
	var v num
	_ = s.Get("t", "k", &v)
	del(s, "t", "k")
	writes, reads := counter(t, o, "persistence.writes"), counter(t, o, "persistence.reads")
	if writes != 2 || reads != 1 {
		t.Fatalf("writes = %d, reads = %d; want 2, 1", writes, reads)
	}
	if records := counter(t, o, "persistence.records"); records != 2 {
		t.Fatalf("records = %d after a put and a delete, want 2", records)
	}
	// One byte each: a varint below 64, and a deletion stores nothing.
	if bytes := counter(t, o, "persistence.bytes"); bytes != 1 {
		t.Fatalf("bytes = %d after a one-byte put and a delete, want 1", bytes)
	}
	if err := s.Write([]Change{{Table: "t", Key: "a", Value: num(1)}, {Table: "t", Key: "b", Value: str("two")}, {Table: "t", Key: "a", Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if w, r, b := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records"), counter(t, o, "persistence.bytes"); w != 3 || r != 5 || b != 1+1+4 {
		t.Fatalf("writes = %d, records = %d, bytes = %d after a 3-record write; want 3, 5, 6", w, r, b)
	}
	writes = 3
	if err := s.Put("t", "k", num(2)); err != nil {
		t.Fatal(err)
	}
	_ = s.Get("t", "k", &v)
	if w, r := counter(t, o, "persistence.writes"), counter(t, o, "persistence.reads"); w-writes != 1 || r-reads != 1 {
		t.Fatalf("writes %d -> %d, reads %d -> %d after one more put and get", writes, w, reads, r)
	}
}

// TestWriteCostCharged: every write is charged PerWrite once, however many
// records it changes.
func TestWriteCostCharged(t *testing.T) {
	s := NewStore(WithCost(CostModel{PerWrite: 200 * time.Microsecond}))
	start := time.Now()
	for i := 0; i < 20; i++ {
		if err := s.Put("t", "k", num(i)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("write cost not charged: %v", elapsed)
	}

	const perWrite = 25 * time.Millisecond
	s = NewStore(WithCost(CostModel{PerWrite: perWrite}))
	changes := make([]Change, 8)
	for i := range changes {
		changes[i] = Change{Table: "t", Key: strconv.Itoa(i), Value: num(i)}
	}
	start = time.Now()
	if err := s.Write(changes); err != nil {
		t.Fatal(err)
	}
	// One charge is 25 ms and one per record would be 200 ms; the bound
	// leaves three charges of slack for a loaded host.
	if elapsed := time.Since(start); elapsed < perWrite || elapsed >= 4*perWrite {
		t.Fatalf("an 8-record write took %v, want one charge of %v", elapsed, perWrite)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w))
			for i := 0; i < 100; i++ {
				_ = s.Put("t", key, num(i))
				var v num
				_ = s.Get("t", key, &v)
				_ = s.Keys("t")
			}
		}(w)
	}
	wg.Wait()
	if s.Len("t") != 8 {
		t.Fatalf("len = %d", s.Len("t"))
	}
}

// Property: Put/Get round-trips arbitrary string records.
func TestQuickRoundTrip(t *testing.T) {
	s := NewStore()
	f := func(key, val string) bool {
		if err := s.Put("q", key, str(val)); err != nil {
			return false
		}
		var out str
		if err := s.Get("q", key, &out); err != nil {
			return false
		}
		return string(out) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// raw is a record of exactly its bytes, written and read as they are.
type raw string

func (b raw) AppendWire(dst []byte) ([]byte, bool) { return append(dst, b...), true }

func (b *raw) ReadWire(r *transport.WireReader) {
	var out []byte
	for r.Len() > 0 {
		out = append(out, r.Byte())
	}
	*b = raw(out)
}

// failing writes half of its bytes into the buffer and then declines.
type failing string

func (f failing) AppendWire(dst []byte) ([]byte, bool) { return append(dst, f[:len(f)/2]...), false }

// rawAt reads the stored bytes of a record.
func rawAt(t *testing.T, s *Store, table, key string) string {
	t.Helper()
	var b raw
	if err := s.Get(table, key, &b); err != nil {
		t.Fatalf("get %s/%s: %v", table, key, err)
	}
	return string(b)
}

// TestPutStoresSelfEncodedRecordsAsReturned: what an AppendWire method
// appends is stored as it is, and an encoder that declines half way through
// its record fails the Put without writing or counting anything, on a new
// key and on a live one.
func TestPutStoresSelfEncodedRecordsAsReturned(t *testing.T) {
	o := obs.New()
	s := NewStore(WithObserver(o))
	first, _ := record{Name: "n", Count: 2}.AppendWire(nil)
	if err := s.Put("t", "k", raw(first)); err != nil {
		t.Fatal(err)
	}
	if got := rawAt(t, s, "t", "k"); got != string(first) {
		t.Fatalf("stored %x", got)
	}
	var out record
	if err := s.Get("t", "k", &out); err != nil || out != (record{Name: "n", Count: 2}) {
		t.Fatalf("decoded %+v, %v", out, err)
	}
	writes, bytes := counter(t, o, "persistence.writes"), counter(t, o, "persistence.bytes")
	for _, key := range []string{"bad", "k"} {
		if err := s.Put("t", key, failing("a record of some length")); err == nil {
			t.Fatalf("%s: a declined record was stored", key)
		}
	}
	if s.Has("t", "bad") || counter(t, o, "persistence.writes") != writes || counter(t, o, "persistence.bytes") != bytes {
		t.Fatal("failed Put left a record or counted a write")
	}
	if got := rawAt(t, s, "t", "k"); got != string(first) {
		t.Fatalf("failed Put changed the live record to %x", got)
	}
	// The buffer the failed encoder scribbled into is reused by the next Put.
	if err := s.Put("t", "k2", raw("[1]")); err != nil || rawAt(t, s, "t", "k2") != "[1]" {
		t.Fatalf("put after a failed one stored %s, %v", rawAt(t, s, "t", "k2"), err)
	}
}

// TestOverwriteShorterThenLonger rewrites one key in place with a shorter and
// then a longer record: Get returns exactly the last one each time, with
// nothing left over from its predecessor.
func TestOverwriteShorterThenLonger(t *testing.T) {
	s := NewStore()
	for i, v := range []record{
		{Name: "medium", Count: 22}, {}, {Name: strings.Repeat("x", 300), Count: 1}, {Name: "s"}, {Name: strings.Repeat("y", 200), Count: -1 << 40}, {},
	} {
		if err := s.Put("t", "k", v); err != nil {
			t.Fatal(err)
		}
		want, _ := v.AppendWire(nil)
		if got := rawAt(t, s, "t", "k"); got != string(want) {
			t.Fatalf("write %d: stored %x, want %x", i, got, want)
		}
		var out record
		if err := s.Get("t", "k", &out); err != nil || out != v {
			t.Fatalf("write %d: decoded %+v, %v, want %+v", i, out, err, v)
		}
	}
	if s.Len("t") != 1 {
		t.Fatalf("len = %d", s.Len("t"))
	}
}

// TestGetResultIsTheCallersOwn: what a Get decoded stays as it was when the
// key is rewritten, and when it is deleted and other records are written
// through the buffers the store recycles.
func TestGetResultIsTheCallersOwn(t *testing.T) {
	s := NewStore()
	first := record{Name: "first", Count: 1}
	if err := s.Put("t", "k", first); err != nil {
		t.Fatal(err)
	}
	var b raw
	if err := s.Get("t", "k", &b); err != nil {
		t.Fatal(err)
	}
	var got record
	if err := s.Get("t", "k", &got); err != nil {
		t.Fatal(err)
	}
	want, _ := first.AppendWire(nil)
	if err := s.Put("t", "k", record{Name: "SECOND", Count: 2}); err != nil {
		t.Fatal(err)
	}
	if string(b) != string(want) || got != first {
		t.Fatalf("after the rewrite the earlier Get reads %x / %+v", b, got)
	}
	del(s, "t", "k")
	for _, key := range []string{"other", "k"} {
		if err := s.Put("t", key, record{Name: "THIRD!", Count: 3}); err != nil {
			t.Fatal(err)
		}
		var sink record
		if err := s.Get("t", key, &sink); err != nil {
			t.Fatal(err)
		}
	}
	if string(b) != string(want) || got != first {
		t.Fatalf("after delete and reuse the earlier Get reads %x / %+v", b, got)
	}
}

// filled is a self-describing record: Fill is determined by Writer and Seq,
// so a reader can tell a record some Put wrote in full from a torn one or a
// mix of two.
type filled struct {
	Writer int
	Seq    int
	Fill   string
}

func newFilled(writer, seq int) filled {
	return filled{Writer: writer, Seq: seq, Fill: strings.Repeat(string(rune('a'+writer)), 1+(seq*7+writer*13)%90)}
}

func (f filled) AppendWire(dst []byte) ([]byte, bool) {
	dst = binary.AppendVarint(binary.AppendVarint(dst, int64(f.Writer)), int64(f.Seq))
	return transport.AppendWireString(dst, f.Fill), true
}

func (f *filled) ReadWire(r *transport.WireReader) {
	*f = filled{Writer: int(r.Varint()), Seq: int(r.Varint()), Fill: r.String()}
}

// TestConcurrentPutGetOneKey has eight goroutines rewrite and read one key
// with records of differing lengths: every Get must decode to a record one
// Put wrote in full. Run with -race it also checks that no decode reads a
// buffer a Put is writing.
func TestConcurrentPutGetOneKey(t *testing.T) {
	s := NewStore()
	if err := s.Put("t", "k", newFilled(0, 0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 200; i++ {
				if err := s.Put("t", "k", newFilled(w, i)); err != nil {
					t.Error(err)
					return
				}
				var got filled
				if err := s.Get("t", "k", &got); err != nil {
					t.Errorf("writer %d seq %d: %v", w, i, err)
					return
				}
				if got != newFilled(got.Writer, got.Seq) {
					t.Errorf("writer %d seq %d read a record nobody wrote: %+v", w, i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestWriteIsAllOrNothing: a write whose second record fails to encode
// changes nothing — not the new key before it, not the live key it would
// delete or rewrite — and counts no write, no record and no byte. A record
// fails when its encoder declines, and when it holds a value of a kind the
// wire form does not carry (object.State's list) — a channel, or a nested
// map, which encoding/json used to accept — whether it is a state, an
// attribute list or an entity.
func TestWriteIsAllOrNothing(t *testing.T) {
	o := obs.New()
	s := NewStore(WithObserver(o))
	live := record{Name: "live", Count: 1}
	if err := s.Put("t", "live", live); err != nil {
		t.Fatal(err)
	}
	liveBytes, _ := live.AppendWire(nil)
	bad := map[string]Record{"a record that declines": failing("torn record")}
	for kind, v := range map[string]any{"channel": make(chan int), "nested map": map[string]any{"k": int64(1)}} {
		st := object.State{"a": int64(1), "bad": v, "z": "after"}
		bad["a state holding a "+kind] = st
		bad["an attribute list holding a "+kind] = object.AttrsOf(st)
		bad["an entity holding a "+kind] = object.New("C", "id", st)
	}
	for name, v := range bad {
		writes, records, bytes := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records"), counter(t, o, "persistence.bytes")
		err := s.Write([]Change{
			{Table: "t", Key: "new", Value: record{Name: "new", Count: 2}},
			{Table: "t", Key: "live", Value: v},
			{Table: "t", Key: "live", Delete: true},
		})
		if err == nil {
			t.Fatalf("%s: the write succeeded", name)
		}
		if s.Has("t", "new") || rawAt(t, s, "t", "live") != string(liveBytes) {
			t.Fatalf("%s: a failed write changed the table: new stored %v, live = %x", name, s.Has("t", "new"), rawAt(t, s, "t", "live"))
		}
		if w, r, b := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records"), counter(t, o, "persistence.bytes"); w != writes || r != records || b != bytes {
			t.Fatalf("%s: a failed write moved the counters: writes %d -> %d, records %d -> %d, bytes %d -> %d", name, writes, w, records, r, bytes, b)
		}
	}
}

// TestWriteAppliesInOrder: the changes of one write apply in their order, so
// a put then a delete of one key leaves none, a delete then a put leaves the
// put, and two puts leave the second.
func TestWriteAppliesInOrder(t *testing.T) {
	s := NewStore()
	for _, key := range []string{"gone", "back"} {
		if err := s.Put("t", key, raw("old")); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Write([]Change{
		{Table: "t", Key: "gone", Value: raw("put")},
		{Table: "t", Key: "gone", Delete: true},
		{Table: "t", Key: "back", Delete: true},
		{Table: "t", Key: "back", Value: raw("put")},
		{Table: "t", Key: "twice", Value: raw("first")},
		{Table: "t", Key: "twice", Value: raw("second")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Has("t", "gone") {
		t.Errorf("put then delete left %s", rawAt(t, s, "t", "gone"))
	}
	if got := rawAt(t, s, "t", "back"); got != "put" {
		t.Errorf("delete then put left %s", got)
	}
	if got := rawAt(t, s, "t", "twice"); got != "second" {
		t.Errorf("two puts left %s", got)
	}
	// A write to a table nobody wrote creates it; a deletion alone does not.
	del(s, "none", "k")
	if err := s.Write([]Change{{Table: "fresh", Key: "k", Delete: true}, {Table: "fresh", Key: "k", Value: raw("1")}}); err != nil || rawAt(t, s, "fresh", "k") != "1" {
		t.Fatalf("write to a new table: %v", err)
	}
}

// TestWriteSpansTables: one write changes records in several tables, all or
// nothing. A write whose change to its second table cannot encode leaves both
// tables and every counter as they were; one that encodes is one write of
// all its records, whatever tables they are in.
func TestWriteSpansTables(t *testing.T) {
	o := obs.New()
	s := NewStore(WithObserver(o))
	for _, table := range []string{"a", "b"} {
		if err := s.Put(table, "k", raw("old")); err != nil {
			t.Fatal(err)
		}
	}
	writes, records, bytes := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records"), counter(t, o, "persistence.bytes")
	err := s.Write([]Change{
		{Table: "a", Key: "k", Value: raw("new")},
		{Table: "a", Key: "added", Value: raw("new")},
		{Table: "b", Key: "k", Delete: true},
		{Table: "b", Key: "bad", Value: failing("b")},
	})
	if err == nil {
		t.Fatal("a write with a change that cannot encode succeeded")
	}
	if rawAt(t, s, "a", "k") != "old" || s.Has("a", "added") || rawAt(t, s, "b", "k") != "old" || s.Has("b", "bad") {
		t.Fatalf("a failed write changed a table: a = %v, b = %v", s.Keys("a"), s.Keys("b"))
	}
	if w, r, b := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records"), counter(t, o, "persistence.bytes"); w != writes || r != records || b != bytes {
		t.Fatalf("a failed write moved the counters: writes %d -> %d, records %d -> %d, bytes %d -> %d", writes, w, records, r, bytes, b)
	}
	err = s.Write([]Change{
		{Table: "a", Key: "k", Value: raw("new")},
		{Table: "b", Key: "k", Delete: true},
		{Table: "c", Key: "k", Value: raw("c")},
		{Table: "a", Key: "added", Value: raw("a2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rawAt(t, s, "a", "k") != "new" || rawAt(t, s, "a", "added") != "a2" || s.Has("b", "k") || rawAt(t, s, "c", "k") != "c" {
		t.Fatalf("after a write across three tables: a = %v, b = %v, c = %v", s.Keys("a"), s.Keys("b"), s.Keys("c"))
	}
	if w, r, b := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records"), counter(t, o, "persistence.bytes"); w != writes+1 || r != records+4 || b != bytes+3+1+2 {
		t.Fatalf("a write of 4 records across three tables: writes %d -> %d, records %d -> %d, bytes %d -> %d; want one write of 4 records and 6 bytes", writes, w, records, r, bytes, b)
	}
}

// TestNothingToWriteIsNoWrite: a write of no changes and the drop of a table
// that does not exist change nothing, so neither is charged or counted; the
// drop of a table that exists is one write of the records it held.
func TestNothingToWriteIsNoWrite(t *testing.T) {
	o := obs.New()
	s := NewStore(WithObserver(o), WithCost(CostModel{PerWrite: 20 * time.Millisecond}))
	start := time.Now()
	if err := s.Write(nil); err != nil {
		t.Fatal(err)
	}
	s.DropTable("never-written")
	if elapsed := time.Since(start); elapsed >= 20*time.Millisecond {
		t.Errorf("writing nothing was charged: %v", elapsed)
	}
	if w, r := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records"); w != 0 || r != 0 {
		t.Fatalf("writing nothing counted %d writes of %d records, want none", w, r)
	}
	for _, k := range []string{"a", "b"} {
		if err := s.Put("t", k, raw(k)); err != nil {
			t.Fatal(err)
		}
	}
	s.DropTable("t")
	if w, r := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records"); w != 3 || r != 4 {
		t.Fatalf("two puts and a drop of their table counted %d writes of %d records, want 3 of 4", w, r)
	}
}

// shared is a value two writers encode from.
type shared struct {
	mu sync.Mutex
	v  string
}

func (v *shared) set(s string) {
	v.mu.Lock()
	v.v = s
	v.mu.Unlock()
}

// gated encodes what its source holds when its encoder runs; with read set,
// it then closes read and waits for release before it returns.
type gated struct {
	src           *shared
	read, release chan struct{}
}

func (g gated) AppendWire(dst []byte) ([]byte, bool) {
	g.src.mu.Lock()
	v := g.src.v
	g.src.mu.Unlock()
	if g.read != nil {
		close(g.read)
		<-g.release
	}
	return append(dst, v...), true
}

// TestLaterWriteStoresNewerRecord: writer A's encoder reads v1 and blocks;
// B sets v2 and writes, and the test waits for B to finish or 50 ms; then A
// is released. The record stored is v2. Records are encoded under the store
// lock, so B cannot encode before A stored; a store that encoded before
// taking its lock let B store v2 and A then store its older v1 over it.
func TestLaterWriteStoresNewerRecord(t *testing.T) {
	s := NewStore()
	src := &shared{v: "v1"}
	a := gated{src: src, read: make(chan struct{}), release: make(chan struct{})}
	aDone, bDone := make(chan error, 1), make(chan error, 1)
	go func() { aDone <- s.Put("t", "k", a) }()
	<-a.read
	src.set("v2")
	go func() { bDone <- s.Put("t", "k", gated{src: src}) }()
	select {
	case err := <-bDone:
		bDone <- err
	case <-time.After(50 * time.Millisecond):
	}
	close(a.release)
	for _, done := range []chan error{aDone, bDone} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := rawAt(t, s, "t", "k"); got != "v2" {
		t.Fatalf("stored %s after the later write of v2", got)
	}
}
