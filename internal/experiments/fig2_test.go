package experiments

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hydra/internal/core"
	"hydra/internal/engine"
	"hydra/internal/partition"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
)

// repackFig2 is runFig2's cell loop from before singlecore's (M-1)-core
// packing was derived from the shared M-core one: every scheme runs through
// its allocator, so singlecore repacks, and self-partitioning schemes get a
// placeholder partition when the shared packing fails. cfg must pin its
// ResultsVersion.
func repackFig2(t *testing.T, cfg Fig2Config) []Fig2Point {
	t.Helper()
	c := cfg.withDefaults()
	allocs, err := core.Resolve(c.Schemes...)
	if err != nil {
		t.Fatal(err)
	}
	self := make([]bool, len(allocs))
	for i, a := range allocs {
		if a.Name() == "singlecore" {
			allocs[i] = core.NewSingleCoreAllocator(c.Heuristic)
		}
		self[i] = core.SelfPartitions(allocs[i])
	}
	type cell struct{ k, t int }
	steps := int(0.975/c.UtilStepFrac + 1e-9)
	var cells []cell
	for k := 1; k <= steps; k++ {
		for t := 0; t < c.TasksetsPerPoint; t++ {
			cells = append(cells, cell{k, t})
		}
	}
	results, err := engine.Run(context.Background(), cells, func(_ context.Context, _ int, rng *rand.Rand, cl cell) ([]bool, error) {
		w, err := taskgen.Generate(taskgen.DefaultParams(c.M, c.UtilStepFrac*float64(cl.k)*float64(c.M)), rng)
		if err != nil || !necessaryCondition(w, c.M) {
			return nil, nil
		}
		in := &core.Input{M: c.M, RT: w.RT, RTPartition: make([]int, len(w.RT)), Sec: w.Sec}
		part, err := partition.PartitionRT(w.RT, c.M, c.Heuristic)
		if err == nil {
			if in, err = core.NewInput(c.M, w.RT, part.CoreOf, w.Sec); err != nil {
				return nil, err
			}
		}
		accepted := make([]bool, len(allocs))
		for i, a := range allocs {
			if part != nil || self[i] {
				accepted[i] = a.Allocate(in).Schedulable
			}
		}
		return accepted, nil
	}, engine.Options{
		Workers:        c.Workers,
		Seed:           c.Seed,
		Stream:         func(idx int) int64 { return int64(cells[idx].k)<<32 | int64(cells[idx].t) },
		ResultsVersion: stats.RNGVersion(c.ResultsVersion),
	})
	if err != nil {
		t.Fatal(err)
	}
	var points []Fig2Point
	for k := 1; k <= steps; k++ {
		pt := Fig2Point{TotalUtil: c.UtilStepFrac * float64(k) * float64(c.M), Schemes: c.Schemes, Accepted: make([]int, len(allocs))}
		for _, accepted := range results[(k-1)*c.TasksetsPerPoint : k*c.TasksetsPerPoint] {
			if accepted == nil {
				continue
			}
			pt.Generated++
			for i, ok := range accepted {
				if ok {
					pt.Accepted[i]++
				}
			}
		}
		if len(pt.Accepted) >= 2 && pt.Accepted[0] > 0 {
			pt.ImprovementPct = max(0, (pt.Ratio(0)-pt.Ratio(1))/pt.Ratio(0)*100)
		}
		points = append(points, pt)
	}
	return points
}

// RunFig2 derives singlecore's packing from the shared one under first-fit
// and best-fit; every count must still equal the repacking reference, for
// every heuristic, both results versions and singlecore in either column.
func TestFig2MatchesRepackReference(t *testing.T) {
	heuristics := []partition.Heuristic{partition.BestFit, partition.FirstFit, partition.WorstFit, partition.NextFit}
	for _, m := range []int{2, 3, 4, 8} {
		for _, h := range heuristics {
			for _, version := range []int{1, 2} {
				for _, schemes := range [][]string{nil, {"singlecore", "hydra", "partition-best-fit"}} {
					cfg := Fig2Config{M: m, TasksetsPerPoint: 5, UtilStepFrac: 0.075, Seed: int64(m), Heuristic: h, Schemes: schemes, ResultsVersion: version}
					got, err := RunFig2(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want := repackFig2(t, cfg); !reflect.DeepEqual(got, want) {
						t.Fatalf("M=%d %v v%d schemes=%v:\n got %+v\nwant %+v", m, h, version, schemes, got, want)
					}
				}
			}
		}
	}
}
