package partition

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"hydra/internal/rts"
	"hydra/internal/taskgen"
)

// coldPartitionRT is the exact-only packer PartitionRT must match: the same
// task order and heuristics, with every core tried and every admission
// decided by a cold exact RTA of the whole core (rts.CoreSchedulable).
func coldPartitionRT(tasks []rts.RTTask, m int, h Heuristic) ([]int, bool) {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(tasks[b].Utilization(), tasks[a].Utilization()) })
	cores := make([][]rts.RTTask, m)
	loads := make([]rts.CoreLoad, m)
	coreOf := make([]int, len(tasks))
	cursor := 0
	for _, i := range order {
		admits := func(c int) bool { return rts.CoreSchedulable(append(slices.Clip(cores[c]), tasks[i])) }
		c := fullScanChooseCore(h, m, admits, func(c int) float64 { return loads[c].SumU }, &cursor)
		if c < 0 {
			return nil, false
		}
		cores[c] = append(cores[c], tasks[i])
		loads[c].AddRT(tasks[i])
		coreOf[i] = c
	}
	return coreOf, true
}

// TestPartitionMatchesColdExactPacker: PartitionRT's incremental trials,
// warm-started or admitted by the hyperbolic bound, place every task where
// the cold exact-RTA packer does, over taskgen problems across the Fig. 2
// utilization range, for every heuristic and M from 2 to 9. Half the
// problems have deadlines below their periods, which the bound leaves to
// exact RTA.
func TestPartitionMatchesColdExactPacker(t *testing.T) {
	before := rts.ReadAnalysisMetrics()
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 1200; i++ {
		m := 2 + i%8
		w, err := taskgen.Generate(taskgen.DefaultParams(m, (0.05+0.95*rng.Float64())*float64(m)), rng)
		if err != nil {
			continue
		}
		if i%16 >= 8 {
			for j := range w.RT {
				rt := &w.RT[j]
				rt.D = rt.C + (rt.T-rt.C)*rng.Float64()
			}
		}
		for _, h := range []Heuristic{BestFit, FirstFit, WorstFit, NextFit} {
			want, ok := coldPartitionRT(w.RT, m, h)
			got, err := PartitionRT(w.RT, m, h)
			if ok != (err == nil) || ok && !slices.Equal(got.CoreOf, want) {
				t.Fatalf("problem %d, %v, m=%d: PartitionRT = %v (err %v), cold packer = %v (ok %t)", i, h, m, got, err, want, ok)
			}
		}
	}
	if admits := rts.ReadAnalysisMetrics().BoundAdmits - before.BoundAdmits; admits == 0 {
		t.Fatal("no trial was admitted by the hyperbolic bound")
	}
}
