package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/taskgen"
)

// fig2Cell is one (utilization level, taskset draw) grid cell, mirroring the
// acceptance-ratio experiment's shape.
type fig2Cell struct {
	k, t int
	util float64
}

type fig2CellResult struct {
	Generated bool
	Accepted  []bool
	Checksum  float64
}

// fig2Grid builds a small fig2-style grid: levels × draws at M=2.
func fig2Grid(levels, draws int) []fig2Cell {
	var cells []fig2Cell
	for k := 1; k <= levels; k++ {
		for t := 0; t < draws; t++ {
			cells = append(cells, fig2Cell{k: k, t: t, util: 0.2 * float64(k) * 2})
		}
	}
	return cells
}

// fig2Fn evaluates one cell exactly like the acceptance-ratio driver: draw a
// workload from the cell RNG, then run both schemes from the registry.
func fig2Fn(schemes []core.Allocator) func(ctx context.Context, idx int, rng *rand.Rand, cell fig2Cell) (fig2CellResult, error) {
	return func(ctx context.Context, idx int, rng *rand.Rand, cell fig2Cell) (fig2CellResult, error) {
		w, err := taskgen.Generate(taskgen.DefaultParams(2, cell.util), rng)
		if err != nil {
			return fig2CellResult{}, nil // this draw not splittable; skip
		}
		part, err := partition.PartitionRT(w.RT, 2, partition.BestFit)
		if err != nil {
			return fig2CellResult{Generated: true, Accepted: make([]bool, len(schemes))}, nil
		}
		in, err := core.NewInput(2, w.RT, part.CoreOf, w.Sec)
		if err != nil {
			return fig2CellResult{}, err
		}
		res := fig2CellResult{Generated: true, Accepted: make([]bool, len(schemes))}
		for i, a := range schemes {
			r := a.Allocate(in)
			res.Accepted[i] = r.Schedulable
			if r.Schedulable {
				res.Checksum += r.Cumulative
			}
		}
		return res, nil
	}
}

// The tentpole guarantee: a fig2-style grid produces identical results for 1
// worker and 8 workers under the same seed.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	schemes, err := core.Resolve("hydra", "singlecore")
	if err != nil {
		t.Fatal(err)
	}
	cells := fig2Grid(4, 12)
	fn := fig2Fn(schemes)
	stream := func(idx int) int64 { return int64(cells[idx].k)<<32 | int64(cells[idx].t) }

	serial, err := Run(context.Background(), cells, fn, Options{Workers: 1, Seed: 42, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), cells, fn, Options{Workers: 8, Seed: 42, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("workers=1 and workers=8 produced different results for the same seed")
	}
	// Sanity: the grid exercised real work.
	var generated, accepted int
	for _, r := range serial {
		if r.Generated {
			generated++
		}
		for _, ok := range r.Accepted {
			if ok {
				accepted++
			}
		}
	}
	if generated == 0 || accepted == 0 {
		t.Fatalf("degenerate grid: generated=%d accepted=%d", generated, accepted)
	}
}

// Results come back in cell order even when later cells finish first.
func TestRunOrderedResults(t *testing.T) {
	cells := make([]int, 32)
	for i := range cells {
		cells[i] = i
	}
	out, err := Run(context.Background(), cells, func(ctx context.Context, idx int, rng *rand.Rand, cell int) (int, error) {
		time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond) // scramble finish order
		return cell * cell, nil
	}, Options{Workers: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// Per-cell RNG depends only on (seed, stream label), not on worker placement.
func TestRunStreamLabels(t *testing.T) {
	cells := []int{0, 1, 2, 3}
	fn := func(ctx context.Context, idx int, rng *rand.Rand, cell int) (int64, error) {
		return rng.Int63(), nil
	}
	a, err := Run(context.Background(), cells, fn, Options{Workers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Same labels through an explicit Stream: identical draws.
	b, err := Run(context.Background(), cells, fn, Options{Workers: 1, Seed: 5, Stream: func(i int) int64 { return int64(i) }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical stream labels must yield identical draws")
	}
	// Distinct labels: independent draws.
	seen := map[int64]bool{}
	for _, v := range a {
		if seen[v] {
			t.Fatalf("stream collision: %v", a)
		}
		seen[v] = true
	}
}

func TestRunError(t *testing.T) {
	boom := errors.New("boom")
	cells := make([]int, 64)
	_, err := Run(context.Background(), cells, func(ctx context.Context, idx int, rng *rand.Rand, cell int) (int, error) {
		if idx == 5 || idx == 40 {
			return 0, boom
		}
		return 0, nil
	}, Options{Workers: 4, Seed: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Deterministic attribution: the lowest failing cell index is reported.
	if want := "cell 5"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want mention of %q", err, want)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cells := make([]int, 1000)
	started := make(chan struct{}, 1)
	_, err := Run(ctx, cells, func(ctx context.Context, idx int, rng *rand.Rand, cell int) (int, error) {
		select {
		case started <- struct{}{}:
			cancel()
		default:
		}
		return 0, nil
	}, Options{Workers: 2, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunCancelReturnsWithinOneCell(t *testing.T) {
	// Cancelling mid-grid must stop new cells from starting even though the
	// cell function never looks at its context: on one worker, exactly the
	// cell that triggered the cancel executes, and Run returns after it.
	const cellWork = 10 * time.Millisecond
	cells := make([]int, 500)
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	start := time.Now()
	_, err := Run(ctx, cells, func(_ context.Context, idx int, _ *rand.Rand, _ int) (int, error) {
		if executed.Add(1) == 1 {
			cancel()
		}
		time.Sleep(cellWork)
		return 0, nil
	}, Options{Workers: 1, Seed: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n != 1 {
		t.Fatalf("executed %d cells after cancellation, want exactly 1", n)
	}
	if limit := 20 * cellWork; elapsed > limit {
		t.Fatalf("cancelled run took %v, want under %v (one cell is %v)", elapsed, limit, cellWork)
	}
}

// OnCell fires once per freshly evaluated cell; Precomputed cells are skipped
// entirely (no RNG draw, no worker slot, no OnCell) and keep their value.
func TestRunPrecomputedAndOnCell(t *testing.T) {
	cells := make([]int, 20)
	for i := range cells {
		cells[i] = i
	}
	fn := func(ctx context.Context, idx int, rng *rand.Rand, cell int) (int, error) {
		return cell * 10, nil
	}

	var mu sync.Mutex
	fresh := map[int]int{}
	consulted := map[int]int{}
	var executed atomic.Int64
	out, err := Run(context.Background(), cells, func(ctx context.Context, idx int, rng *rand.Rand, cell int) (int, error) {
		executed.Add(1)
		return fn(ctx, idx, rng, cell)
	}, Options{
		Workers: 8,
		Seed:    1,
		Precomputed: func(idx int) (any, bool) {
			// Workers call Precomputed concurrently.
			mu.Lock()
			consulted[idx]++
			mu.Unlock()
			if idx%3 == 0 {
				return idx * 10, true // what the cell would have computed
			}
			return nil, false
		},
		OnCell: func(idx int, result any) {
			mu.Lock()
			defer mu.Unlock()
			fresh[idx] = result.(int)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*10 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*10)
		}
	}
	wantFresh := 0
	for i := range cells {
		if i%3 != 0 {
			wantFresh++
		}
	}
	if int(executed.Load()) != wantFresh {
		t.Fatalf("executed %d cells, want %d (precomputed cells must not run)", executed.Load(), wantFresh)
	}
	if len(fresh) != wantFresh {
		t.Fatalf("OnCell fired for %d cells, want %d", len(fresh), wantFresh)
	}
	for i := range cells {
		if consulted[i] != 1 {
			t.Fatalf("Precomputed consulted %d times for cell %d, want once", consulted[i], i)
		}
	}
	for idx, v := range fresh {
		if idx%3 == 0 {
			t.Fatalf("OnCell fired for precomputed cell %d", idx)
		}
		if v != idx*10 {
			t.Fatalf("OnCell(%d) saw %d, want %d", idx, v, idx*10)
		}
	}
}

// Precomputing a subset of cells must not change what the remaining cells
// draw: the run's output equals the uninterrupted run's, which is the
// property campaign resume relies on.
func TestRunPrecomputedPreservesDeterminism(t *testing.T) {
	cells := make([]int, 16)
	fn := func(ctx context.Context, idx int, rng *rand.Rand, cell int) (int64, error) {
		return rng.Int63(), nil
	}
	full, err := Run(context.Background(), cells, fn, Options{Workers: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), cells, fn, Options{
		Workers: 8, Seed: 9,
		Precomputed: func(idx int) (any, bool) {
			if idx < 7 {
				return full[idx], true
			}
			return nil, false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatal("precomputed prefix changed the remaining cells' results")
	}
}

// A precomputed value of the wrong type is an error, not a silent zero value.
func TestRunPrecomputedTypeMismatch(t *testing.T) {
	cells := []int{0, 1, 2}
	_, err := Run(context.Background(), cells, func(ctx context.Context, idx int, rng *rand.Rand, cell int) (int, error) {
		return cell, nil
	}, Options{Workers: 8, Seed: 1, Precomputed: func(idx int) (any, bool) {
		if idx == 1 {
			return "not an int", true
		}
		return nil, false
	}})
	if err == nil || !strings.Contains(err.Error(), "precomputed") {
		t.Fatalf("err = %v, want precomputed type mismatch", err)
	}
}

func TestRunEmptyAndDefaults(t *testing.T) {
	out, err := Run(context.Background(), nil, func(ctx context.Context, idx int, rng *rand.Rand, cell struct{}) (int, error) {
		return 1, nil
	}, Options{})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty grid: %v %v", out, err)
	}
	// Workers defaulting (0 => GOMAXPROCS) still runs every cell.
	cells := []int{1, 2, 3}
	got, err := Run(context.Background(), cells, func(ctx context.Context, idx int, rng *rand.Rand, cell int) (int, error) {
		return cell, nil
	}, Options{})
	if err != nil || !reflect.DeepEqual(got, cells) {
		t.Fatalf("got %v err %v", got, err)
	}
}
