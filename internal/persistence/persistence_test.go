package persistence

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dedisys/internal/obs"
)

type record struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

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
	s.Delete("threats", "t1")
	if err := s.Get("threats", "t1", &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted err = %v", err)
	}
	s.Delete("threats", "t1") // idempotent
}

func TestGetMissingTable(t *testing.T) {
	s := NewStore()
	var out record
	if err := s.Get("nope", "k", &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPutRejectsUnencodable(t *testing.T) {
	s := NewStore()
	if err := s.Put("t", "k", make(chan int)); err == nil {
		t.Fatal("unencodable value accepted")
	}
}

func TestKeysSortedAndLen(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"c", "a", "b"} {
		if err := s.Put("t", k, 1); err != nil {
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
	if err := s.Put("t", "k", 1); err != nil {
		t.Fatal(err)
	}
	var v int
	_ = s.Get("t", "k", &v)
	s.Delete("t", "k")
	writes, reads := counter(t, o, "persistence.writes"), counter(t, o, "persistence.reads")
	if writes != 2 || reads != 1 {
		t.Fatalf("writes = %d, reads = %d; want 2, 1", writes, reads)
	}
	if records := counter(t, o, "persistence.records"); records != 2 {
		t.Fatalf("records = %d after a put and a delete, want 2", records)
	}
	if err := s.Write("t", []Change{{Key: "a", Value: 1}, {Key: "b", Value: 2}, {Key: "a", Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if w, r := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records"); w != 3 || r != 5 {
		t.Fatalf("writes = %d, records = %d after a 3-record write; want 3, 5", w, r)
	}
	writes = 3
	if err := s.Put("t", "k", 2); err != nil {
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
		if err := s.Put("t", "k", i); err != nil {
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
		changes[i] = Change{Key: strconv.Itoa(i), Value: i}
	}
	start = time.Now()
	if err := s.Write("t", changes); err != nil {
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
				_ = s.Put("t", key, i)
				var v int
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
		if err := s.Put("q", key, val); err != nil {
			return false
		}
		var out string
		if err := s.Get("q", key, &out); err != nil {
			return false
		}
		return out == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// selfEncoded is a record type that encodes itself; with err set it writes
// half of its record into the buffer and then fails.
type selfEncoded struct {
	json string
	err  error
}

func (s selfEncoded) AppendJSON(dst []byte) ([]byte, error) {
	if s.err != nil {
		return append(dst, s.json[:len(s.json)/2]...), s.err
	}
	return append(dst, s.json...), nil
}

// rawAt reads the stored bytes of a record.
func rawAt(t *testing.T, s *Store, table, key string) string {
	t.Helper()
	var raw json.RawMessage
	if err := s.Get(table, key, &raw); err != nil {
		t.Fatalf("get %s/%s: %v", table, key, err)
	}
	return string(raw)
}

// TestPutStoresSelfEncodedRecordsAsReturned covers the store's fast path: what
// an AppendJSON method appends is stored as it is, and an encoder that fails
// half way through its record fails the Put without writing or counting
// anything, on a new key and on a live one.
func TestPutStoresSelfEncodedRecordsAsReturned(t *testing.T) {
	o := obs.New()
	s := NewStore(WithObserver(o))
	const first = `{"name":"n","count":2}`
	if err := s.Put("t", "k", selfEncoded{json: first}); err != nil {
		t.Fatal(err)
	}
	if got := rawAt(t, s, "t", "k"); got != first {
		t.Fatalf("stored %s", got)
	}
	var out record
	if err := s.Get("t", "k", &out); err != nil || out != (record{Name: "n", Count: 2}) {
		t.Fatalf("decoded %+v, %v", out, err)
	}
	boom := errors.New("boom")
	writes := counter(t, o, "persistence.writes")
	for _, key := range []string{"bad", "k"} {
		if err := s.Put("t", key, selfEncoded{json: `{"name":"other","count":3}`, err: boom}); !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want it to wrap %v", key, err, boom)
		}
	}
	if s.Has("t", "bad") || counter(t, o, "persistence.writes") != writes {
		t.Fatal("failed Put left a record or counted a write")
	}
	if got := rawAt(t, s, "t", "k"); got != first {
		t.Fatalf("failed Put changed the live record to %s", got)
	}
	// The buffer the failed encoder scribbled into is reused by the next Put.
	if err := s.Put("t", "k2", selfEncoded{json: `[1]`}); err != nil || rawAt(t, s, "t", "k2") != `[1]` {
		t.Fatalf("put after a failed one stored %s, %v", rawAt(t, s, "t", "k2"), err)
	}
}

// TestOverwriteShorterThenLonger rewrites one key in place with a shorter and
// then a longer record, through both encoding paths: Get returns exactly the
// last one each time, with nothing left over from its predecessor.
func TestOverwriteShorterThenLonger(t *testing.T) {
	s := NewStore()
	long := record{Name: strings.Repeat("x", 300), Count: 1}
	longJSON, _ := json.Marshal(long)
	for i, v := range []any{
		selfEncoded{json: `{"name":"medium","count":22}`}, selfEncoded{json: `{}`}, selfEncoded{json: string(longJSON)},
		record{Name: "s"}, long, record{},
	} {
		if err := s.Put("t", "k", v); err != nil {
			t.Fatal(err)
		}
		var want string
		if enc, ok := v.(selfEncoded); ok {
			want = enc.json
		} else {
			data, _ := json.Marshal(v)
			want = string(data)
		}
		if got := rawAt(t, s, "t", "k"); got != want {
			t.Fatalf("write %d: stored %s, want %s", i, got, want)
		}
		var wantRec, out record
		_ = json.Unmarshal([]byte(want), &wantRec)
		if err := s.Get("t", "k", &out); err != nil || out != wantRec {
			t.Fatalf("write %d: decoded %+v, %v, want %+v", i, out, err, wantRec)
		}
	}
	if s.Len("t") != 1 {
		t.Fatalf("len = %d", s.Len("t"))
	}
}

// TestGetResultIsTheCallersOwn: bytes a Get handed out stay as they were when
// the key is rewritten, and when it is deleted and other records are written
// through the buffers the store recycles.
func TestGetResultIsTheCallersOwn(t *testing.T) {
	s := NewStore()
	const first = `{"name":"first","count":1}`
	if err := s.Put("t", "k", selfEncoded{json: first}); err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	if err := s.Get("t", "k", &raw); err != nil {
		t.Fatal(err)
	}
	var name struct{ Name string }
	if err := s.Get("t", "k", &name); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k", selfEncoded{json: `{"name":"SECOND","count":2}`}); err != nil {
		t.Fatal(err)
	}
	if string(raw) != first || name.Name != "first" {
		t.Fatalf("after the rewrite the earlier Get reads %s / %q", raw, name.Name)
	}
	s.Delete("t", "k")
	for _, key := range []string{"other", "k"} {
		if err := s.Put("t", key, selfEncoded{json: `{"name":"THIRD!","count":3}`}); err != nil {
			t.Fatal(err)
		}
		var sink json.RawMessage
		if err := s.Get("t", key, &sink); err != nil {
			t.Fatal(err)
		}
	}
	if string(raw) != first || name.Name != "first" {
		t.Fatalf("after delete and reuse the earlier Get reads %s / %q", raw, name.Name)
	}
}

// filled is a self-describing record: Fill is determined by Writer and Seq,
// so a reader can tell a record some Put wrote in full from a torn one or a
// mix of two.
type filled struct {
	Writer int    `json:"writer"`
	Seq    int    `json:"seq"`
	Fill   string `json:"fill"`
}

func newFilled(writer, seq int) filled {
	return filled{Writer: writer, Seq: seq, Fill: strings.Repeat(string(rune('a'+writer)), 1+(seq*7+writer*13)%90)}
}

// selfFilled is filled encoding itself.
type selfFilled filled

func (f selfFilled) AppendJSON(dst []byte) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"writer":`...), int64(f.Writer), 10)
	dst = strconv.AppendInt(append(dst, `,"seq":`...), int64(f.Seq), 10)
	return append(AppendString(append(dst, `,"fill":`...), f.Fill), '}'), nil
}

// TestConcurrentPutGetOneKey has eight goroutines rewrite and read one key,
// half of them through the self-encoding path, with records of differing
// lengths: every Get must decode to a record one Put wrote in full. Run with
// -race it also checks that no decode reads a buffer a Put is writing.
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
				var v any = newFilled(w, i)
				if w%2 == 0 {
					v = selfFilled(newFilled(w, i))
				}
				if err := s.Put("t", "k", v); err != nil {
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

// TestAppendStringMatchesEncodingJSON holds the string rule self-encoding
// records share to encoding/json's, byte for byte, after a prefix.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "plain", "sp ace~", `q"uote`, `back\slash`, "<", ">", "&", "\x00", "\x1f", "\n\t\b\f\r",
		"\x7f", "\x80", "ünï", "\u2028\u2029", "bad\xffutf8", "\xc3", "日本語", "tail\\"} {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("k:"), s); string(got) != "k:"+string(want) {
			t.Errorf("%q: got %s, want k:%s", s, got, want)
		}
	}
}

// TestWriteIsAllOrNothing: a write whose second record fails to encode
// changes nothing — not the new key before it, not the live key it would
// delete or rewrite — and counts no write and no record.
func TestWriteIsAllOrNothing(t *testing.T) {
	o := obs.New()
	s := NewStore(WithObserver(o))
	const live = `{"name":"live","count":1}`
	if err := s.Put("t", "live", selfEncoded{json: live}); err != nil {
		t.Fatal(err)
	}
	writes, records := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records")
	boom := errors.New("boom")
	err := s.Write("t", []Change{
		{Key: "new", Value: selfEncoded{json: `{"name":"new","count":2}`}},
		{Key: "live", Value: selfEncoded{json: `{"name":"torn","count":3}`, err: boom}},
		{Key: "live", Delete: true},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap %v", err, boom)
	}
	if s.Has("t", "new") || rawAt(t, s, "t", "live") != live {
		t.Fatalf("a failed write changed the table: new stored %v, live = %s", s.Has("t", "new"), rawAt(t, s, "t", "live"))
	}
	if w, r := counter(t, o, "persistence.writes"), counter(t, o, "persistence.records"); w != writes || r != records {
		t.Fatalf("a failed write moved the counters: writes %d -> %d, records %d -> %d", writes, w, records, r)
	}
	// A json.Marshal failure is the same.
	if err := s.Write("t", []Change{{Key: "new", Value: 1}, {Key: "bad", Value: make(chan int)}}); err == nil || s.Has("t", "new") {
		t.Fatalf("an unencodable record: err = %v, new stored %v", err, s.Has("t", "new"))
	}
}

// TestWriteAppliesInOrder: the changes of one write apply in their order, so
// a put then a delete of one key leaves none, a delete then a put leaves the
// put, and two puts leave the second.
func TestWriteAppliesInOrder(t *testing.T) {
	s := NewStore()
	for _, key := range []string{"gone", "back"} {
		if err := s.Put("t", key, selfEncoded{json: `"old"`}); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Write("t", []Change{
		{Key: "gone", Value: selfEncoded{json: `"put"`}},
		{Key: "gone", Delete: true},
		{Key: "back", Delete: true},
		{Key: "back", Value: selfEncoded{json: `"put"`}},
		{Key: "twice", Value: selfEncoded{json: `"first"`}},
		{Key: "twice", Value: `second`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Has("t", "gone") {
		t.Errorf("put then delete left %s", rawAt(t, s, "t", "gone"))
	}
	if got := rawAt(t, s, "t", "back"); got != `"put"` {
		t.Errorf("delete then put left %s", got)
	}
	if got := rawAt(t, s, "t", "twice"); got != `"second"` {
		t.Errorf("two puts left %s", got)
	}
	// A write to a table nobody wrote creates it; a deletion alone does not.
	s.Delete("none", "k")
	if err := s.Write("fresh", []Change{{Key: "k", Delete: true}, {Key: "k", Value: 1}}); err != nil || rawAt(t, s, "fresh", "k") != "1" {
		t.Fatalf("write to a new table: %v", err)
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

func (g gated) AppendJSON(dst []byte) ([]byte, error) {
	g.src.mu.Lock()
	v := g.src.v
	g.src.mu.Unlock()
	if g.read != nil {
		close(g.read)
		<-g.release
	}
	return AppendString(dst, v), nil
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
	if got := rawAt(t, s, "t", "k"); got != `"v2"` {
		t.Fatalf("stored %s after the later write of v2", got)
	}
}
