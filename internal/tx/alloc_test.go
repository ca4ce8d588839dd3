//go:build !race

package tx

import (
	"context"
	"testing"
)

// TestBeginWithIsOneAllocation: a transaction begun with a value beside it is
// one allocation, begin to rollback, and otherwise the transaction BeginCtx
// makes — a zero value, an id after the last one either way handed out, the
// registered resources driven through commit and rollback. Not built under
// -race, whose runtime allocates on paths the production build does not.
func TestBeginWithIsOneAllocation(t *testing.T) {
	ctx := context.Background()
	m := NewManager()
	r := &fakeResource{}
	m.RegisterResource(r)
	if allocs := testing.AllocsPerRun(1000, func() {
		txn, _ := BeginWith[[64]byte](m, ctx)
		_ = txn.Rollback()
	}); allocs != 1 {
		t.Fatalf("BeginWith + Rollback = %.2f allocs, want 1", allocs)
	}
	r.rolledBack = 0

	first := m.BeginCtx(ctx)
	txn, x := BeginWith[[64]byte](m, ctx)
	if *x != ([64]byte{}) {
		t.Fatalf("the value begun beside the transaction is not zero: %v", *x)
	}
	last := m.BeginCtx(ctx)
	if !(first.ID() < txn.ID() && txn.ID() < last.ID()) {
		t.Fatalf("ids %d, %d, %d do not increase across BeginCtx and BeginWith", first.ID(), txn.ID(), last.ID())
	}
	if txn.Status() != Active || txn.Context() == nil {
		t.Fatalf("begun with status %v, context %v", txn.Status(), txn.Context())
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if r.prepared != 1 || r.committed != 1 || r.rolledBack != 0 {
		t.Fatalf("after Commit: resource calls = %+v", r)
	}
	txn, _ = BeginWith[[64]byte](m, ctx)
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if r.prepared != 1 || r.committed != 1 || r.rolledBack != 1 {
		t.Fatalf("after Rollback: resource calls = %+v", r)
	}
}
