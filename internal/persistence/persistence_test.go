package persistence

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

type record struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
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
	s := NewStore()
	if err := s.Put("t", "k", 1); err != nil {
		t.Fatal(err)
	}
	var v int
	_ = s.Get("t", "k", &v)
	s.Delete("t", "k")
	st := s.Stats()
	if st.Writes != 2 || st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Put("t", "k", 2); err != nil {
		t.Fatal(err)
	}
	_ = s.Get("t", "k", &v)
	if after := s.Stats(); after.Writes-st.Writes != 1 || after.Reads-st.Reads != 1 {
		t.Fatalf("stats before = %+v, after one more put and get = %+v", st, after)
	}
}

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

// selfEncoded is a record type that encodes itself.
type selfEncoded struct {
	json string
	err  error
}

func (s selfEncoded) MarshalJSON() ([]byte, error) { return []byte(s.json), s.err }

// TestPutStoresSelfEncodedRecordsAsReturned covers the store's fast path: a
// json.Marshaler's bytes are stored as they are, and its error fails the Put
// without writing or counting anything.
func TestPutStoresSelfEncodedRecordsAsReturned(t *testing.T) {
	s := NewStore()
	if err := s.Put("t", "k", selfEncoded{json: `{"name":"n","count":2}`}); err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	if err := s.Get("t", "k", &raw); err != nil || string(raw) != `{"name":"n","count":2}` {
		t.Fatalf("stored %s, %v", raw, err)
	}
	var out record
	if err := s.Get("t", "k", &out); err != nil || out != (record{Name: "n", Count: 2}) {
		t.Fatalf("decoded %+v, %v", out, err)
	}
	boom := errors.New("boom")
	writes := s.Stats().Writes
	if err := s.Put("t", "bad", selfEncoded{err: boom}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap %v", err, boom)
	}
	if s.Has("t", "bad") || s.Stats().Writes != writes {
		t.Fatal("failed Put left a record or counted a write")
	}
}
