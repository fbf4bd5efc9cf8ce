package discovery

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"gent/internal/index"
)

// TestDiscoverContextEquivalence: a live, cancelable context changes
// nothing — the cancellation polling inside the probe loop never perturbs
// the ranking — on both the fresh-build and the prebuilt path.
func TestDiscoverContextEquivalence(t *testing.T) {
	snap, src := exampleLake().Snapshot(), exampleSource()
	want, err := DiscoverWithSnapContext(context.Background(), snap, &index.IndexSet{}, src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, ix := range []*index.IndexSet{{}, {Inverted: index.BuildInverted(snap)}} {
		got, err := DiscoverWithSnapContext(ctx, snap, ix, src, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("prebuilt=%v: discovery under a live deadline diverged", ix.Inverted != nil)
		}
	}
}

// TestDiscoverContextCanceled: a canceled context aborts retrieval with
// ctx.Err() and no candidates, on both the fresh-build and prebuilt paths.
func TestDiscoverContextCanceled(t *testing.T) {
	snap, src := exampleLake().Snapshot(), exampleSource()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cands, err := DiscoverWithSnapContext(ctx, snap, &index.IndexSet{}, src, DefaultOptions())
	if !errors.Is(err, context.Canceled) || cands != nil {
		t.Fatalf("fresh path: want canceled/nil, got %v / %v", err, cands)
	}
	ix := &index.IndexSet{Inverted: index.BuildInverted(snap)}
	cands, err = DiscoverWithSnapContext(ctx, snap, ix, src, DefaultOptions())
	if !errors.Is(err, context.Canceled) || cands != nil {
		t.Fatalf("prebuilt path: want canceled/nil, got %v / %v", err, cands)
	}
}
