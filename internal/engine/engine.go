// Package engine provides the deterministic parallel grid runner behind the
// experiment drivers. The evaluation of the paper — and every scaling sweep
// beyond it — has the same shape: a large grid of independent cells
// (scheme × platform size × taskset draw), each cheap to evaluate, whose
// results are aggregated into figures. Run executes such a grid on a bounded
// worker pool, each worker taking the next cell index from one shared atomic
// counter, while guaranteeing that the output is byte-identical regardless
// of worker count or goroutine scheduling:
//
//   - every cell receives its own RNG, derived from the run seed and the
//     cell's stream label (never from shared rand state), so a cell's draw
//     does not depend on which worker executes it or in what order;
//   - results are collected positionally, so the returned slice is in cell
//     order no matter which cells finished first.
//
// The cell function must be pure modulo its RNG: it must not read or write
// state shared with other cells.
package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"hydra/internal/stats"
)

// Options tunes a Run.
type Options struct {
	// Workers bounds the number of concurrently executing cells.
	// Zero or negative selects runtime.GOMAXPROCS(0).
	Workers int
	// Seed is the base RNG seed for the run. Each cell gets an independent
	// generator split from (Seed, Stream(idx)).
	Seed int64
	// Stream labels the RNG stream of each cell; nil defaults to the cell
	// index. Drivers use explicit labels to keep streams stable when the
	// grid is resized (e.g. label by (utilization level, taskset draw) so
	// adding a utilization level does not reshuffle every draw), or to share
	// a workload stream across comparison arms.
	Stream func(idx int) int64
	// Precomputed, when non-nil, supplies results for cells that were
	// already evaluated (e.g. replayed from a campaign checkpoint). A cell
	// for which it returns ok is not evaluated and keeps the supplied value;
	// the value must have the Run's result type R, or the cell fails with an
	// error. It is called from the worker goroutines, at most once per cell
	// and in no fixed order, so calls may be concurrent and the callback must
	// synchronize internally. Because every cell draws its RNG from the
	// run seed and its own stream label — never from shared state — skipping
	// cells cannot perturb the draws of the cells that do run, which is what
	// makes checkpoint/resume byte-identical to an uninterrupted run.
	Precomputed func(idx int) (any, bool)
	// OnCell, when non-nil, is called after each freshly evaluated cell
	// with its index and result (type R). It is not called for precomputed
	// or failed cells. Calls may come concurrently from multiple worker
	// goroutines; the callback must synchronize internally.
	OnCell func(idx int, result any)
	// ResultsVersion selects the generator family behind every cell RNG
	// (stats.RNGVersion): v1 = the historical math/rand streams, v2 = the
	// splittable SplitMix64 generator. Zero selects v1, so existing callers'
	// draws never move; any other unknown version fails the Run explicitly —
	// a version mismatch must never become a silent stream change.
	ResultsVersion stats.RNGVersion
}

// Run evaluates fn over every cell on a bounded worker pool and returns the
// results in cell order. It stops early when ctx is cancelled or any cell
// fails; the first error (by cell index, deterministically) is returned.
// A failure starts no cell above its index; cells below it and cells in
// flight still run with ctx uncancelled, so the lowest failing cell runs.
func Run[C, R any](ctx context.Context, cells []C, fn func(ctx context.Context, idx int, rng *rand.Rand, cell C) (R, error), opts Options) ([]R, error) {
	if len(cells) == 0 {
		return []R{}, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(cells))
	stream := opts.Stream
	if stream == nil {
		stream = func(idx int) int64 { return int64(idx) }
	}
	version := opts.ResultsVersion
	if version == 0 {
		version = stats.LegacyResultsVersion
	}
	if _, err := stats.ParseResultsVersion(int(version)); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	var failed atomic.Int64 // lowest failed cell index so far
	failed.Store(int64(len(cells)))
	fail := func(idx int) {
		for cur := failed.Load(); int64(idx) < cur; cur = failed.Load() {
			if failed.CompareAndSwap(cur, int64(idx)) {
				break
			}
		}
	}

	results := make([]R, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64 // next cell index to hand out
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Indices go out in increasing order and failed only falls, so
				// no cell starts after cancellation or above the lowest
				// failure, while cells below it still run. Each index has one
				// owner, so the writes below race with nothing.
				idx := int(next.Add(1) - 1)
				if idx >= len(cells) || ctx.Err() != nil || int64(idx) > failed.Load() {
					return
				}
				if opts.Precomputed != nil {
					if v, ok := opts.Precomputed(idx); ok {
						if r, ok := v.(R); ok {
							results[idx] = r
						} else {
							errs[idx] = fmt.Errorf("precomputed result has type %T, want %T", v, results[idx])
							fail(idx)
						}
						continue
					}
				}
				rng := stats.VersionedRNG(version, opts.Seed, stream(idx))
				r, err := fn(ctx, idx, rng, cells[idx])
				if err != nil {
					errs[idx] = err
					fail(idx)
					continue
				}
				results[idx] = r
				if opts.OnCell != nil {
					opts.OnCell(idx, r)
				}
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine: cell %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
