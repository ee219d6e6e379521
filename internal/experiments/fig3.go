package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"hydra/internal/core"
	"hydra/internal/engine"
	"hydra/internal/partition"
	"hydra/internal/taskgen"
)

// Fig3Config parametrizes the HYDRA-vs-optimal comparison (Sec. IV-B.2,
// Fig. 3): M = 2 cores, NS in [2, 6] security tasks, and the remaining
// parameters as in Fig. 2. The paper observes a cumulative-tightness gap of
// zero at low/medium utilization growing to at most ~22 %.
type Fig3Config struct {
	M                int     // default 2 (paper)
	NSMin, NSMax     int     // default [2, 6] (paper)
	TasksetsPerPoint int     // default 50
	UtilStepFrac     float64 // default 0.05 (of M)
	Seed             int64
	// Scheme names the allocator measured against the optimal baseline
	// (registry name, see core.Names); default "hydra".
	Scheme string
	// RefineJointGP refines each per-core period vector of the optimal
	// baseline with the signomial sequential-GP maximizer (slower, slightly
	// tighter optimum). Off by default; the assignment enumeration is the
	// dominant effect.
	RefineJointGP bool
	// Workers bounds the parallel grid workers; 0 selects GOMAXPROCS.
	Workers int
	// ResultsVersion pins the RNG family behind the taskset draws
	// (stats.RNGVersion: 1 = historical math/rand, 2 = SplitMix64). Absent
	// selects the default for new runs; inside a campaign it must match the
	// manifest's pinned version.
	ResultsVersion int `json:"results_version,omitempty"`
}

func (c *Fig3Config) withDefaults() Fig3Config {
	out := *c
	if out.M <= 0 {
		out.M = 2
	}
	if out.NSMin <= 0 {
		out.NSMin = 2
	}
	if out.NSMax < out.NSMin {
		out.NSMax = 6
	}
	if out.TasksetsPerPoint <= 0 {
		out.TasksetsPerPoint = 50
	}
	if out.UtilStepFrac <= 0 {
		out.UtilStepFrac = 0.05
	}
	if out.Scheme == "" {
		out.Scheme = "hydra"
	}
	return out
}

// Fig3Point is one utilization level of the figure.
type Fig3Point struct {
	TotalUtil  float64
	Compared   int     // tasksets where both the scheme and OPT were schedulable
	MeanGapPct float64 // mean (eta_OPT - eta_scheme)/eta_OPT * 100
	MaxGapPct  float64
}

// RunFig3 reproduces Fig. 3: for each utilization level, draw small
// workloads, run the configured scheme and the exhaustive optimal baseline,
// and average the cumulative-tightness gap over instances both schemes
// schedule. The grid runs on the parallel engine; results are identical for
// any worker count.
func RunFig3(cfg Fig3Config) ([]Fig3Point, error) {
	r, err := runFig3(context.Background(), cfg, Hooks{})
	if err != nil {
		return nil, err
	}
	return r.Points, nil
}

// Fig3Result is the "fig3" campaign's result document: the
// results_version the draws came from plus the per-utilization points. The
// rest of the config is deliberately not echoed back so results stay
// byte-identical across settings (like Workers) that cannot move a draw.
type Fig3Result struct {
	ResultsVersion int `json:"results_version"`
	Points         []Fig3Point
}

// fig3CellResult is one taskset draw's outcome; exported fields let campaign
// checkpoints round-trip it through JSON.
type fig3CellResult struct {
	Compared bool
	Gap      float64
}

// runFig3 is the campaign-hooked run behind RunFig3 and the "fig3"
// spec.
func runFig3(ctx context.Context, cfg Fig3Config, hooks Hooks) (*Fig3Result, error) {
	c := cfg.withDefaults()
	ver, err := resolveResultsVersion("fig3", c.ResultsVersion, hooks)
	if err != nil {
		return nil, err
	}
	c.ResultsVersion = int(ver)
	allocs, err := core.Resolve(c.Scheme)
	if err != nil {
		return nil, fmt.Errorf("fig3: %w", err)
	}
	alloc := allocs[0]
	optimal := core.NewOptimalAllocator(core.OptimalOptions{RefineJointGP: c.RefineJointGP})

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

	results, err := engine.Run(ctx, cells, func(ctx context.Context, idx int, rng *rand.Rand, cl cell) (fig3CellResult, error) {
		params := taskgen.DefaultParams(c.M, cl.util)
		params.NS = c.NSMin + rng.Intn(c.NSMax-c.NSMin+1)
		w, err := taskgen.Generate(params, rng)
		if err != nil {
			return fig3CellResult{}, nil
		}
		part, err := partition.PartitionRT(w.RT, c.M, partition.BestFit)
		if err != nil {
			return fig3CellResult{}, nil
		}
		in, err := core.NewInput(c.M, w.RT, part.CoreOf, w.Sec)
		if err != nil {
			return fig3CellResult{}, err
		}
		hyd := alloc.Allocate(in)
		opt := optimal.Allocate(in)
		gap, ok := core.TightnessGap(opt, hyd)
		if !ok {
			return fig3CellResult{}, nil
		}
		return fig3CellResult{Compared: true, Gap: gap}, nil
	}, campaignEngineOptions[fig3CellResult](engine.Options{
		Workers:        c.Workers,
		Seed:           c.Seed + 1000, // historical stream offset of the serial driver
		Stream:         func(idx int) int64 { return int64(cells[idx].k)<<32 | int64(cells[idx].t) },
		ResultsVersion: ver,
	}, hooks))
	if err != nil {
		return nil, fmt.Errorf("fig3: %w", err)
	}

	points := make([]Fig3Point, 0, steps)
	for k := 1; k <= steps; k++ {
		pt := Fig3Point{TotalUtil: c.UtilStepFrac * float64(k) * mf}
		var sum float64
		for t := 0; t < c.TasksetsPerPoint; t++ {
			r := results[(k-1)*c.TasksetsPerPoint+t]
			if !r.Compared {
				continue
			}
			pt.Compared++
			sum += r.Gap
			if r.Gap > pt.MaxGapPct {
				pt.MaxGapPct = r.Gap
			}
		}
		if pt.Compared > 0 {
			pt.MeanGapPct = sum / float64(pt.Compared)
		}
		points = append(points, pt)
	}
	return &Fig3Result{ResultsVersion: int(ver), Points: points}, nil
}
