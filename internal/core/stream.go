package core

import (
	"context"
	"iter"
	"runtime"
	"sync"

	"gent/internal/table"
)

// BatchItem is one source's outcome within a batch (ReclaimAllContext,
// ReclaimStream).
type BatchItem struct {
	// Index is the source's position in the input slice — the correlation
	// handle for streams, whose items arrive in completion order.
	Index int
	// Source is the input table, as passed in.
	Source *table.Table
	// Result is nil when Err is set.
	Result *Result
	// Err is the source's own failure, phase-tagged (*Error): a keyless
	// source fails alone, not the batch.
	Err error
}

// batchConfig resolves the worker count and configuration a batch run uses:
// the handle's, with traversal workers split under the source-level fan-out.
func (r *Reclaimer) batchConfig(nSrcs, workers int) (int, Config) {
	cfg := r.cfg
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nSrcs {
		workers = nSrcs
	}
	if workers < 1 {
		workers = 1
	}
	// Source-level fan-out already saturates the CPU, so unless the caller
	// asked for a specific traversal pool, split the cores between the two
	// levels instead of giving every source a full GOMAXPROCS engine
	// (workers² goroutines otherwise).
	if cfg.TraverseWorkers <= 0 && workers > 1 {
		cfg.TraverseWorkers = SplitTraverseWorkers(workers)
	}
	return workers, cfg
}

// ReclaimStream reclaims every source on a bounded worker pool and yields
// each BatchItem as it completes — completion order, not input order — so a
// caller consumes finished results while the stragglers are still running.
// Memory stays bounded by the worker count: at most workers results sit
// buffered awaiting the consumer plus workers more in flight (2×workers
// held at once, worst case), and a slow consumer backpressures the pool.
//
// Each item pins the lake epoch current when its reclamation starts: items
// in flight when lake.Apply lands complete on the snapshot they started on,
// and later items see the new epoch (their observer events carry it).
//
// workers <= 0 uses GOMAXPROCS; every item runs under the handle's
// configuration. Breaking out of the range cancels the remaining work; a
// canceled or expired ctx stops dispatch, and in-flight sources yield items
// whose Err is a phase-tagged *Error wrapping ctx.Err(). Items already
// completed are still delivered. Every pool goroutine exits before the
// iterator returns control after its final item.
func (r *Reclaimer) ReclaimStream(ctx context.Context, srcs []*table.Table, workers int) iter.Seq[BatchItem] {
	return func(yield func(BatchItem) bool) {
		if len(srcs) == 0 {
			return
		}
		if ctx == nil {
			ctx = context.Background()
		}
		nWorkers, cfg := r.batchConfig(len(srcs), workers)
		batch := r.WithConfig(cfg)
		// Build the shared substrates before fanning out, so the pool starts
		// on fully-parallel index construction instead of serializing behind
		// the first query's lazy build — unless the context is already dead,
		// in which case the workers below fail each source fast (before any
		// lazy build) and the canceled caller never pays for indexing.
		if ctx.Err() == nil {
			batch.Warm()
		}

		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		// stop is closed only when the consumer breaks out of the range: the
		// one situation where nobody will drain out, so a delivery must be
		// abandoned. External ctx cancellation does NOT close it — the
		// consumer keeps ranging until out closes, so every item a worker
		// finished (successfully or with a cancellation error) is delivered,
		// honoring the completed-items contract.
		stop := make(chan struct{})
		out := make(chan BatchItem, nWorkers)
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < nWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					res, err := batch.ReclaimContext(sctx, srcs[i])
					select {
					case out <- BatchItem{Index: i, Source: srcs[i], Result: res, Err: err}:
					case <-stop:
						return
					}
				}
			}()
		}
		go func() {
			defer close(next)
			for i := range srcs {
				select {
				case next <- i:
				case <-sctx.Done():
					return
				}
			}
		}()
		go func() {
			wg.Wait()
			close(out)
		}()
		// Teardown runs deferred so the pool is torn down on every exit —
		// normal completion, an early break (yield false), or the consumer's
		// loop body panicking / calling runtime.Goexit mid-iteration: cancel
		// the remaining work, release any worker blocked on delivery, and
		// wait for the pool to drain. Workers finish their current source at
		// its next cancellation poll, so no worker (or observer callback)
		// outlives the stream; undelivered buffered items are dropped
		// unseen. After a normal drain all of this is a no-op.
		defer func() {
			cancel()
			close(stop)
			wg.Wait()
		}()
		for item := range out {
			if !yield(item) {
				return
			}
		}
	}
}

// ReclaimAllContext reclaims every source and collects the full batch,
// sharing the session's substrates across all of them. Items come back in
// input order, each carrying its own result or error. When ctx cancellation
// leaves sources undispatched, the batch error (a *Error tagged PhaseBatch
// wrapping ctx.Err()) is returned alongside the items: sources that
// completed keep their results, and the never-started ones carry the batch
// error. A batch whose every source finished — even if the deadline fired
// just after the last item — returns a nil error.
func (r *Reclaimer) ReclaimAllContext(ctx context.Context, srcs []*table.Table, workers int) ([]BatchItem, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	items := make([]BatchItem, len(srcs))
	for i, src := range srcs {
		items[i] = BatchItem{Index: i, Source: src}
	}
	for item := range r.ReclaimStream(ctx, srcs, workers) {
		items[item.Index] = item
	}
	// Only work actually left unfinished makes the batch itself fail; an
	// expiry in the window after the final delivery is not a batch failure.
	var berr *Error
	for i := range items {
		if items[i].Result == nil && items[i].Err == nil {
			if berr == nil {
				err := ctx.Err()
				if err == nil {
					err = context.Canceled // unreachable: only cancellation stops dispatch
				}
				berr = phaseError(PhaseBatch, "", Timing{}, err)
			}
			items[i].Err = berr
		}
	}
	if berr != nil {
		return items, berr
	}
	return items, nil
}
