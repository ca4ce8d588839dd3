package tx

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"dedisys/internal/object"
)

// writeSetEnv is a registry holding a and b (not c) and one open transaction;
// do plays a script of writes the way node and replication record them.
type writeSetEnv struct {
	reg *object.Registry
	txn *Tx
}

func newWriteSetEnv(t *testing.T, m *Manager) *writeSetEnv {
	t.Helper()
	env := &writeSetEnv{reg: object.NewRegistry(), txn: m.Begin()}
	for _, id := range []object.ID{"a", "b"} {
		if err := env.reg.Add(object.New("T", id, object.State{"n": int64(0)})); err != nil {
			t.Fatal(err)
		}
	}
	return env
}

// do runs steps like "u:a" (update), "c:c" (create), "d:a" (delete), "rc:r"
// and "rd:r" (a create or delete RecordWrite marks, carrying its ID as
// payload) and "x" (a bare compensation).
func (env *writeSetEnv) do(t *testing.T, script string) {
	t.Helper()
	for _, step := range strings.Fields(script) {
		op, arg, _ := strings.Cut(step, ":")
		id := object.ID(arg)
		switch op {
		case "u":
			e, err := env.reg.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			env.txn.RecordUpdate(e)
			e.Set("n", e.GetInt("n")+1)
		case "c":
			if err := env.reg.Add(object.New("T", id, object.State{"n": int64(0)})); err != nil {
				t.Fatal(err)
			}
			env.txn.RecordCreate(env.reg, id)
		case "d":
			e, err := env.reg.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := env.reg.Remove(id); err != nil {
				t.Fatal(err)
			}
			env.txn.RecordDelete(env.reg, e)
		case "rc":
			env.txn.RecordWrite(Created, id, "payload of "+arg)
		case "rd":
			env.txn.RecordWrite(Deleted, id, nil)
		case "x":
			env.txn.RecordUndo(func() {})
		default:
			t.Fatalf("bad step %q", step)
		}
	}
}

func (env *writeSetEnv) writes() []Write {
	var got []Write
	env.txn.Writes(func(w Write) { got = append(got, w) })
	return got
}

func TestWriteSet(t *testing.T) {
	m := NewManager()
	cases := []struct {
		name, script string
		want         []Write
		records      int // undo records left, 0 = one per step
	}{
		{name: "update·update", script: "u:a u:a", want: []Write{{Kind: Updated, ID: "a"}}, records: 1},
		{name: "create·update", script: "c:c u:c", want: []Write{{Kind: Created, ID: "c"}}, records: 1},
		{name: "update·delete", script: "u:a d:a", want: []Write{{Kind: Deleted, ID: "a"}}},
		{name: "delete·create", script: "d:a c:a", want: []Write{{Kind: Created, ID: "a"}}},
		{name: "create·delete", script: "c:c d:c", want: []Write{{Kind: Deleted, ID: "c"}}},
		{name: "update after a re-creation is absorbed", script: "u:a d:a c:a u:a", want: []Write{{Kind: Created, ID: "a"}}, records: 3},
		{name: "order is first touch", script: "u:b u:a u:b c:c d:a", want: []Write{{Kind: Updated, ID: "b"}, {Kind: Deleted, ID: "a"}, {Kind: Created, ID: "c"}}, records: 4},
		{name: "compensations are not writes", script: "x u:a x", want: []Write{{Kind: Updated, ID: "a"}}},
		{name: "writes without a local copy", script: "rc:r rd:s u:a", want: []Write{{Kind: Created, ID: "r", Payload: "payload of r"}, {Kind: Deleted, ID: "s"}, {Kind: Updated, ID: "a"}}},
		{name: "the deciding record's payload", script: "rd:r rc:r", want: []Write{{Kind: Created, ID: "r", Payload: "payload of r"}}},
		{name: "read-only", script: "", want: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newWriteSetEnv(t, m)
			env.do(t, tc.script)
			if got := env.writes(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("write set = %+v, want %+v", got, tc.want)
			}
			if tc.records == 0 {
				tc.records = len(strings.Fields(tc.script))
			}
			if len(env.txn.log()) != tc.records {
				t.Errorf("%d undo records, want %d", len(env.txn.log()), tc.records)
			}
			// However the records merged, rollback returns the registry to
			// where it started.
			if err := env.txn.Rollback(); err != nil {
				t.Fatal(err)
			}
			for _, id := range []object.ID{"a", "b"} {
				if e, err := env.reg.Get(id); err != nil || e.GetInt("n") != 0 || e.Version() != 1 {
					t.Errorf("after rollback %s = %v, %v", id, e, err)
				}
			}
			if env.reg.Has("c") {
				t.Error("after rollback c still exists")
			}
			if got := env.writes(); got != nil {
				t.Errorf("write set after rollback = %+v, want none", got)
			}
		})
	}
}

// TestWriteSetInterleavedCopiesOnce: writes to A, B, A make two entries, and
// the second visit to A neither records nor copies A's state again.
func TestWriteSetInterleavedCopiesOnce(t *testing.T) {
	m := NewManager()
	env := newWriteSetEnv(t, m)
	env.do(t, "u:a u:b u:a")
	want := []Write{{Kind: Updated, ID: "a"}, {Kind: Updated, ID: "b"}}
	if got := env.writes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("write set = %+v, want %+v", got, want)
	}
	if err := env.txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	run := func(script string) func() {
		return func() {
			env.txn = m.Begin()
			env.do(t, script)
			if err := env.txn.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ab, aba := fewestAllocs(20, run("u:a u:b")), fewestAllocs(20, run("u:a u:b u:a"))
	// The script split is the same one allocation either way.
	if aba != ab {
		t.Fatalf("A,B,A allocates %.1f, A,B %.1f: the second visit to A recorded or copied again", aba, ab)
	}
}

// writeSetReader is a resource that reads the write set where the middleware's
// resources do, in Commit.
type writeSetReader struct {
	fakeResource
	seen []Write
}

func (r *writeSetReader) Commit(t *Tx) error {
	t.Writes(func(w Write) { r.seen = append(r.seen, w) })
	return nil
}

func TestWriteSetReadableInCommitEmptyAfter(t *testing.T) {
	m := NewManager()
	r := &writeSetReader{}
	m.RegisterResource(r)
	env := newWriteSetEnv(t, m)
	env.do(t, "u:a c:c")
	if err := env.txn.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []Write{{Kind: Updated, ID: "a"}, {Kind: Created, ID: "c"}}
	if !reflect.DeepEqual(r.seen, want) {
		t.Fatalf("resource saw %+v in Commit, want %+v", r.seen, want)
	}
	if got := env.writes(); got != nil {
		t.Fatalf("write set after commit = %+v, want none", got)
	}
}

// TestWriteSetReadInPlace: reading the set builds nothing — both resources of
// a replicated commit read it, on every write.
func TestWriteSetReadInPlace(t *testing.T) {
	env := newWriteSetEnv(t, NewManager())
	env.do(t, "u:a u:b d:a c:c x")
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		env.txn.Writes(func(w Write) { n += int(w.Kind) })
	}); allocs != 0 {
		t.Fatalf("reading the write set allocates %.1f, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("callback not run")
	}
}

func TestTxStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Tx{}); size > 96 {
		t.Fatalf("Tx is %d bytes, over the 96-byte size class: every explicit transaction (BeginCtx) allocates one Tx and would pay the next class (112), and an operation's reused block of transaction and invocation grows with it — keep what a transaction locks, writes and stores in the memory it borrows (txMem), not in new fields", size)
	}
	if size := unsafe.Sizeof(undoRecord{}); size > 80 {
		t.Fatalf("undoRecord is %d bytes, over 80: every record is copied into the log and every write scans it", size)
	}
}
