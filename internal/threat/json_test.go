package threat

import (
	"encoding/json"
	"fmt"
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/persistence"
)

// TestThreatRecordsGolden pins the threats table: the keys and bytes a stored
// threat leaves are what fmt's "t%08d" and json.Marshal of the threat, its
// affected list and its application data give, for the first sequence number
// and for one of nine digits, where the key outgrows its padding.
func TestThreatRecordsGolden(t *testing.T) {
	for _, seq := range []int64{1, 123456789} {
		backing := persistence.NewStore()
		s := NewStore(backing, IdenticalOnce)
		s.SetOwner("n1")
		s.seq = seq - 1
		stored, isNew, err := s.Add(sample("C1", "f1"))
		if err != nil || !isNew || stored.Seq != seq {
			t.Fatalf("add: seq %d, new %v, %v", stored.Seq, isNew, err)
		}
		key := fmt.Sprintf("t%08d", seq)
		if seq == 1 && key != "t00000001" || seq > 1 && key != "t123456789" {
			t.Fatalf("reference key %q", key)
		}
		want := map[string]any{key: stored, key + "/affected": stored.Affected, key + "/appdata": stored.AppData}
		if keys := backing.Keys(table); len(keys) != len(want) {
			t.Fatalf("seq %d: keys %v, want %d", seq, keys, len(want))
		}
		for k, v := range want {
			ref, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var got json.RawMessage
			if err := backing.Get(table, k, &got); err != nil {
				t.Fatalf("seq %d: %v", seq, err)
			}
			if string(got) != string(ref) {
				t.Errorf("%s:\n got %s\nwant %s", k, got, ref)
			}
		}
	}
	var first json.RawMessage
	backing := persistence.NewStore()
	s := NewStore(backing, IdenticalOnce)
	s.SetOwner("n1")
	if _, _, err := s.Add(sample("C1", "f1")); err != nil {
		t.Fatal(err)
	}
	if err := backing.Get(table, "t00000001", &first); err != nil {
		t.Fatal(err)
	}
	const golden = `{"seq":1,"constraint":"C1","contextId":"f1","degree":4,"affected":[{"id":"f1","class":"Flight","staleness":{"PossiblyStale":true,"Version":3,"EstimatedLatest":4}}],"appData":{"note":"x"},"instructions":{"AllowRollback":false,"NotifyOnReplicaConflict":false},"count":1,"txId":7,"uid":"n1#1"}`
	if string(first) != golden {
		t.Errorf("t00000001:\n got %s\nwant %s", first, golden)
	}
}

// TestThreatJSONMatchesEncodingJSON holds the threat records' encoders to
// encoding/json over the shapes a record takes: empty and nil lists and maps,
// omitted fields, captured states, and strings that need escaping.
func TestThreatJSONMatchesEncodingJSON(t *testing.T) {
	odd := "a\"b\\c<d>&e\u00e9\n"
	threats := []Threat{
		{},
		sample("C1", "f1"),
		{Seq: 12, Constraint: odd, ContextID: object.ID(odd), Degree: constraint.Uncheckable, Affected: []AffectedObject{},
			AppData: map[string]string{}, Instructions: constraint.ReconciliationInstructions{AllowRollback: true, NotifyOnReplicaConflict: true},
			Count: 3, TxID: -1, UID: odd},
		{Seq: 1 << 40, Constraint: "C2", Affected: []AffectedObject{
			{ID: "a", Class: odd, State: object.State{"n": int64(-5), "s": odd, "r": []object.ID{"x", "y"}, "b": true, "z": nil}},
			{ID: "b", State: object.State{}},
			{ID: "c", Staleness: constraint.Staleness{Version: -1, EstimatedLatest: 1 << 62}},
		}, AppData: map[string]string{"z": odd, "a": "1", odd: "", "m": "<>"}},
	}
	for i, th := range threats {
		for _, c := range []struct {
			name string
			rec  interface {
				AppendJSON([]byte) ([]byte, error)
			}
			ref any
		}{
			{"threat", &th, th},
			{"affected", affectedList(th.Affected), th.Affected},
			{"appdata", appData(th.AppData), th.AppData},
		} {
			want, err := json.Marshal(c.ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.rec.AppendJSON([]byte("prefix"))
			if err != nil {
				t.Fatalf("%d %s: %v", i, c.name, err)
			}
			if string(got) != "prefix"+string(want) {
				t.Errorf("%d %s:\n got %s\nwant prefix%s", i, c.name, got, want)
			}
		}
	}
}
