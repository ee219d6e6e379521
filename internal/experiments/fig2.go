package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"hydra/internal/core"
	"hydra/internal/engine"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/taskgen"
)

// Fig2Config parametrizes the synthetic acceptance-ratio experiment
// (Sec. IV-B.1). Zero values select the paper's setup: utilization swept
// from 0.025M to 0.975M in steps of 0.025M, 250 tasksets per point, HYDRA
// against the SingleCore baseline.
type Fig2Config struct {
	M                int
	TasksetsPerPoint int     // default 250 (paper)
	UtilStepFrac     float64 // default 0.025 (of M)
	Seed             int64
	// Heuristic partitions the real-time tasks of the shared input (zero
	// value: best-fit, the paper's choice). The "singlecore" scheme, which
	// repartitions the RT tasks itself, is rebuilt with this same heuristic
	// so the comparison arms stay apples-to-apples when the heuristic is
	// swept.
	Heuristic partition.Heuristic
	Policy    core.Policy // HYDRA commitment policy; selects the hydra variant when Schemes is empty
	// Schemes selects the allocation schemes by registry name (see
	// core.Names). Default: the HYDRA variant for Policy, then "singlecore".
	// ImprovementPct compares Schemes[0] against Schemes[1].
	Schemes []string
	// Workers bounds the parallel grid workers; 0 selects GOMAXPROCS.
	Workers int
	// ResultsVersion pins the RNG family behind the taskset draws
	// (stats.RNGVersion: 1 = historical math/rand, 2 = SplitMix64). Absent
	// selects the default for new runs; inside a campaign it must match the
	// manifest's pinned version.
	ResultsVersion int `json:"results_version,omitempty"`
}

func (c *Fig2Config) withDefaults() Fig2Config {
	out := *c
	if out.M <= 0 {
		out.M = 2
	}
	if out.TasksetsPerPoint <= 0 {
		out.TasksetsPerPoint = 250
	}
	if out.UtilStepFrac <= 0 {
		out.UtilStepFrac = 0.025
	}
	if len(out.Schemes) == 0 {
		out.Schemes = []string{
			core.NewHydraAllocator(core.HydraOptions{Policy: out.Policy}).Name(),
			"singlecore",
		}
	}
	return out
}

// Fig2Point is one x-position of the figure: a total-utilization level with
// the acceptance counts of every compared scheme.
type Fig2Point struct {
	TotalUtil float64
	Generated int      // tasksets passing the Eq. 1 necessary condition
	Schemes   []string // scheme names, in Fig2Config.Schemes order
	Accepted  []int    // accepted tasksets per scheme, parallel to Schemes
	// ImprovementPct is (delta_0 - delta_1)/delta_0 * 100 for the first two
	// schemes, clamped to [0, 100] when scheme 0 dominates. With the default
	// schemes this is the paper's HYDRA-over-SingleCore improvement. (The
	// paper prints the formula with the subscripts swapped but plots exactly
	// this quantity; see EXPERIMENTS.md.)
	ImprovementPct float64
}

// Ratio returns the acceptance ratio delta of scheme i.
func (p Fig2Point) Ratio(i int) float64 {
	if p.Generated == 0 || i < 0 || i >= len(p.Accepted) {
		return 0
	}
	return float64(p.Accepted[i]) / float64(p.Generated)
}

// RunFig2 reproduces one subplot of Fig. 2 (one M). For every utilization
// level it generates random workloads (Randfixedsum utilizations, paper
// parameter ranges), filters by the Eq. 1 necessary condition, and counts
// how many each scheme schedules. The (level, taskset) grid is evaluated on
// the parallel engine; results are identical for any worker count.
func RunFig2(cfg Fig2Config) ([]Fig2Point, error) {
	r, err := runFig2(context.Background(), cfg, Hooks{})
	if err != nil {
		return nil, err
	}
	return r.Points, nil
}

// Fig2Result is the "fig2" campaign's result document: the
// results_version the draws came from plus the per-utilization points. The
// rest of the config is deliberately not echoed back so results stay
// byte-identical across settings (like Workers) that cannot move a draw.
type Fig2Result struct {
	ResultsVersion int `json:"results_version"`
	Points         []Fig2Point
}

// fig2CellResult is one (utilization level, taskset draw) cell outcome. Its
// fields are exported so campaign checkpoints can round-trip it through JSON.
type fig2CellResult struct {
	Generated bool
	Accepted  []bool
}

// runFig2 is the campaign-hooked run behind RunFig2 and the "fig2"
// spec.
func runFig2(ctx context.Context, cfg Fig2Config, hooks Hooks) (*Fig2Result, error) {
	c := cfg.withDefaults()
	if c.M < 2 {
		return nil, fmt.Errorf("fig2: M must be >= 2 (SingleCore needs a spare core), got %d", c.M)
	}
	ver, err := resolveResultsVersion("fig2", c.ResultsVersion, hooks)
	if err != nil {
		return nil, err
	}
	c.ResultsVersion = int(ver)
	allocs, err := core.Resolve(c.Schemes...)
	if err != nil {
		return nil, fmt.Errorf("fig2: %w", err)
	}
	// Rebuild singlecore with the swept heuristic so the comparison arms
	// stay apples-to-apples, and remember which schemes partition the RT
	// tasks themselves — those can run even when the shared M-core
	// partition fails. First-fit and best-fit fill a prefix of the cores
	// (partition.PartitionRT), so there singlecore skips its repack and runs
	// on the shared input: it rejects if that packing failed or used core M-1.
	selfPartitions := make([]bool, len(allocs))
	for i, a := range allocs {
		allocs[i] = core.WithHeuristic(a, c.Heuristic)
		if core.SelfPartitions(allocs[i]) && (c.Heuristic == partition.FirstFit || c.Heuristic == partition.BestFit) {
			allocs[i] = core.NewAllocator("singlecore", core.SingleCoreInput)
		}
		selfPartitions[i] = core.SelfPartitions(allocs[i])
	}

	type cell struct {
		k, t int
		util float64
	}
	mf := float64(c.M)
	steps := int(0.975/c.UtilStepFrac + 1e-9)
	cells := make([]cell, 0, steps*c.TasksetsPerPoint)
	for k := 1; k <= steps; k++ {
		util := c.UtilStepFrac * float64(k) * mf
		for t := 0; t < c.TasksetsPerPoint; t++ {
			cells = append(cells, cell{k: k, t: t, util: util})
		}
	}
	if hooks.Total != nil {
		hooks.Total(len(cells))
	}

	results, err := engine.Run(ctx, cells, func(ctx context.Context, idx int, rng *rand.Rand, cl cell) (fig2CellResult, error) {
		w, err := taskgen.Generate(taskgen.DefaultParams(c.M, cl.util), rng)
		if err != nil {
			return fig2CellResult{}, nil // utilization not splittable at this draw; rare
		}
		if !necessaryCondition(w, c.M) {
			return fig2CellResult{}, nil // trivially unschedulable; excluded per the paper
		}
		out := fig2CellResult{Generated: true, Accepted: make([]bool, len(allocs))}
		part, err := partition.PartitionRT(w.RT, c.M, c.Heuristic)
		if err != nil {
			// The shared M-core partition failed. Partition-dependent schemes
			// reject, but self-partitioning schemes (singlecore repacks onto
			// M-1 cores with exact-RTA admission, where bin-packing anomalies
			// can still succeed) get their shot on a placeholder partition.
			in := &core.Input{M: c.M, RT: w.RT, RTPartition: make([]int, len(w.RT)), Sec: w.Sec}
			for i, a := range allocs {
				if selfPartitions[i] {
					out.Accepted[i] = a.Allocate(in).Schedulable
				}
			}
			return out, nil
		}
		in, err := core.NewInput(c.M, w.RT, part.CoreOf, w.Sec)
		if err != nil {
			return fig2CellResult{}, err
		}
		for i, a := range allocs {
			out.Accepted[i] = a.Allocate(in).Schedulable
		}
		return out, nil
	}, campaignEngineOptions[fig2CellResult](engine.Options{
		Workers: c.Workers,
		Seed:    c.Seed,
		// Stream by (level, draw) so the workload stream is stable under
		// grid reshaping (matching the serial driver's historical streams).
		Stream:         func(idx int) int64 { return int64(cells[idx].k)<<32 | int64(cells[idx].t) },
		ResultsVersion: ver,
	}, hooks))
	if err != nil {
		return nil, fmt.Errorf("fig2: %w", err)
	}

	points := make([]Fig2Point, 0, steps)
	for k := 1; k <= steps; k++ {
		pt := Fig2Point{
			TotalUtil: c.UtilStepFrac * float64(k) * mf,
			Schemes:   c.Schemes,
			Accepted:  make([]int, len(allocs)),
		}
		for t := 0; t < c.TasksetsPerPoint; t++ {
			r := results[(k-1)*c.TasksetsPerPoint+t]
			if !r.Generated {
				continue
			}
			pt.Generated++
			for i, ok := range r.Accepted {
				if ok {
					pt.Accepted[i]++
				}
			}
		}
		if len(pt.Accepted) >= 2 && pt.Accepted[0] > 0 {
			pt.ImprovementPct = (pt.Ratio(0) - pt.Ratio(1)) / pt.Ratio(0) * 100
			if pt.ImprovementPct < 0 {
				pt.ImprovementPct = 0
			}
		}
		points = append(points, pt)
	}
	return &Fig2Result{ResultsVersion: int(ver), Points: points}, nil
}

// necessaryCondition applies Eq. 1 to the combined workload with security
// tasks at their desired rates (their densest legal configuration). With
// implicit deadlines, as in Fig. 2, Eq. 1 is a utilization sum, taken here in
// rts.NecessaryConditionHolds's order without building the combined task
// list; a constrained deadline takes its demand-bound scan on a copy.
func necessaryCondition(w *taskgen.Workload, m int) bool {
	util, implicit := 0.0, m > 0
	for _, t := range w.RT {
		util += t.Utilization()
		implicit = implicit && t.D == t.T
	}
	if !implicit {
		all := append([]rts.RTTask(nil), w.RT...)
		for _, s := range w.Sec {
			all = append(all, rts.NewRTTask(s.Name, s.C, s.TDes))
		}
		return rts.NecessaryConditionHolds(all, m)
	}
	for _, s := range w.Sec {
		util += s.C / s.TDes
	}
	return rts.UtilizationFits(util, m)
}
