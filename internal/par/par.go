// Package par runs a loop of independent work items on a bounded number of
// goroutines. It is the one way library code fans out over items: callers
// pass the pool width they want, and nothing here sizes itself, so nested
// loops cannot multiply into GOMAXPROCS² goroutines behind a caller's back.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// For calls f(worker, i) once for each i in [0, n) on at most workers
// goroutines, the caller's among them, and returns when every call has
// returned. worker is in [0, min(workers, n)) and no two concurrent calls
// share one, so f may keep per-worker scratch indexed by it. When only one
// worker is left (workers or n at most 1) every call runs on the caller's
// goroutine, in index order.
//
// Once ctx is done no further index is claimed; calls already running finish.
// For returns ctx.Err() if some index was skipped and nil if every index ran,
// even when ctx ended after the last one.
func For(ctx context.Context, n, workers int, f func(worker, i int)) error {
	done := ctx.Done()
	var next atomic.Int64
	run := func(worker int) {
		for !isDone(done) {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(worker, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	// Each claim takes the next index, so fewer than n claims means a worker
	// stopped early, which only a done ctx makes it do.
	if next.Load() < int64(n) {
		return ctx.Err()
	}
	return nil
}

// isDone polls a Done channel without blocking; a nil channel (a context
// that is never canceled) is never done.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
