package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{0, 1, 2, n, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				width := max(min(workers, n), 1)
				runs := make([]atomic.Int32, n)
				busy := make([]atomic.Bool, width)
				next := 0 // with one worker, the index the next call must get
				err := For(context.Background(), n, workers, func(w, i int) {
					if width == 1 {
						if i != next {
							t.Errorf("one worker ran index %d, want %d (index order)", i, next)
						}
						next = i + 1
					}
					if w < 0 || w >= width {
						t.Errorf("index %d ran on worker %d, want [0, %d)", i, w, width)
						runs[i].Add(1)
						return
					}
					if !busy[w].CompareAndSwap(false, true) {
						t.Errorf("worker %d held by two calls at once", w)
					}
					runs[i].Add(1)
					runtime.Gosched() // hold the id long enough for a sharer to show
					busy[w].Store(false)
				})
				if err != nil {
					t.Fatalf("For: %v", err)
				}
				for i := range runs {
					if c := runs[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times, want 1", i, c)
					}
				}
			})
		}
	}
}

func TestForWaitsForEveryCall(t *testing.T) {
	const n = 8
	var returned atomic.Int32
	started := make(chan struct{})
	var once sync.Once
	err := For(context.Background(), n, 4, func(w, _ int) {
		if w == 0 {
			// The caller's share waits until another worker runs (bounded,
			// so a For that never starts one fails instead of hanging).
			select {
			case <-started:
			case <-time.After(time.Second):
			}
		} else {
			once.Do(func() { close(started) })
			// Outlast the caller's share, so a For that returned when the
			// caller ran out of indexes would return before this call.
			time.Sleep(20 * time.Millisecond)
		}
		returned.Add(1)
	})
	if err != nil {
		t.Fatalf("For: %v", err)
	}
	if got := returned.Load(); got != n {
		t.Fatalf("For returned with %d of %d calls finished", got, n)
	}
}

func TestForCanceledInsideStopsClaiming(t *testing.T) {
	const n, stopAt = 1000, 10
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int32
			err := For(ctx, n, workers, func(_, i int) {
				if ran.Add(1) == stopAt {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("For = %v, want context.Canceled", err)
			}
			// A worker running when cancel lands may finish its item, but no
			// worker claims another once it has seen the cancellation.
			if got := ran.Load(); got < stopAt || got >= stopAt+int32(workers) {
				t.Errorf("%d items ran, want [%d, %d)", got, stopAt, stopAt+workers)
			}
		})
	}
}

func TestForCanceledAfterLastItem(t *testing.T) {
	const n = 7
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int32
			err := For(ctx, n, workers, func(_, _ int) {
				if ran.Add(1) == n {
					cancel()
				}
			})
			if err != nil {
				t.Fatalf("For = %v, want nil once every item ran", err)
			}
			if got := ran.Load(); got != n {
				t.Errorf("%d items ran, want %d", got, n)
			}
		})
	}
}

func TestForDeadContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := For(ctx, 100, workers, func(_, _ int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: For = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Errorf("workers=%d: %d items ran under a dead ctx", workers, got)
		}
	}
	if err := For(ctx, 0, 4, func(_, _ int) { t.Error("ran an item of an empty loop") }); err != nil {
		t.Errorf("empty loop under a dead ctx = %v, want nil", err)
	}
}
