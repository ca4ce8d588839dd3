package threat

import (
	"reflect"
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
	"dedisys/internal/wiretransport"
)

func roundTrip(t *testing.T, payload any) {
	t.Helper()
	out, err := wiretransport.RoundTrip(payload)
	if err != nil {
		t.Fatalf("round trip %T: %v", payload, err)
	}
	if !reflect.DeepEqual(out, payload) {
		t.Fatalf("round trip %T:\n sent %#v\n got  %#v", payload, payload, out)
	}
}

func TestWireCodecThreatPayloads(t *testing.T) {
	th := Threat{
		Seq:        7,
		Constraint: "balance-nonnegative",
		ContextID:  "acct-1",
		Degree:     constraint.PossiblyViolated,
		Affected: []AffectedObject{{
			ID:        "acct-1",
			Class:     "Account",
			Staleness: constraint.Staleness{PossiblyStale: true, Version: 3, EstimatedLatest: 5},
			State:     object.State{"balance": -3.0},
		}},
		AppData:      map[string]string{"ticket": "T-17"},
		Instructions: constraint.ReconciliationInstructions{AllowRollback: true, NotifyOnReplicaConflict: true},
		Count:        3,
		TxID:         99,
		UID:          "a#7",
	}
	roundTrip(t, th)
	// ccm.threat.sync and its reply ship lists. A change (Delta) never
	// travels bare: replication's batch embeds it.
	roundTrip(t, []Threat{th})
}
