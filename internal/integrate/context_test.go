package integrate

import (
	"context"
	"errors"
	"testing"
	"time"

	"gent/internal/table"
)

// TestReclaimContextEquivalence: a live, cancelable context changes
// nothing — the per-table cancellation checks never perturb the fold.
func TestReclaimContextEquivalence(t *testing.T) {
	src := source()
	origs := []*table.Table{candA(), candB(), candC()}
	want := reclaim(t, New(src), origs)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := New(src).ReclaimContext(ctx, origs)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("integration under a live deadline diverged")
	}
}

// TestReclaimContextCanceled: cancellation preempts the per-table fold.
func TestReclaimContextCanceled(t *testing.T) {
	src := source()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := New(src).ReclaimContext(ctx, []*table.Table{candA(), candB()})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("want canceled/nil, got %v / %v", err, out)
	}
}
