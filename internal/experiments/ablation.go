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

// AblationConfig parametrizes the design-choice sweep of DESIGN.md §5: a
// grid over allocation schemes and real-time partition heuristics, measured
// by acceptance ratio and mean per-task tightness at a fixed utilization
// level.
type AblationConfig struct {
	M                int
	UtilFrac         float64 // total utilization as a fraction of M; default 0.8
	TasksetsPerCell  int     // default 100
	Seed             int64
	NonPreemptiveToo bool // additionally evaluate the Sec. V non-preemptive mode
	// Schemes selects the scheme axis of the grid by registry name; default
	// the three HYDRA commitment policies. With NonPreemptiveToo, each
	// scheme's "-np" registry variant is evaluated as well.
	Schemes []string
	// Workers bounds the parallel grid workers; 0 selects GOMAXPROCS.
	Workers int
	// ResultsVersion pins the RNG family behind the taskset draws
	// (stats.RNGVersion: 1 = historical math/rand, 2 = SplitMix64). Absent
	// selects the default for new runs; inside a campaign it must match the
	// manifest's pinned version.
	ResultsVersion int `json:"results_version,omitempty"`
}

func (c *AblationConfig) withDefaults() AblationConfig {
	out := *c
	if out.M <= 0 {
		out.M = 4
	}
	if out.UtilFrac <= 0 {
		out.UtilFrac = 0.8
	}
	if out.TasksetsPerCell <= 0 {
		out.TasksetsPerCell = 100
	}
	if len(out.Schemes) == 0 {
		out.Schemes = []string{"hydra", "hydra-first-feasible", "hydra-least-loaded"}
	}
	return out
}

// AblationCell is one (scheme, heuristic) grid entry.
type AblationCell struct {
	Scheme        string
	Heuristic     partition.Heuristic
	NonPreemptive bool
	Generated     int
	Accepted      int
	MeanTightness float64 // mean per-task tightness over accepted tasksets
}

// AcceptanceRatio returns accepted/generated.
func (c AblationCell) AcceptanceRatio() float64 {
	if c.Generated == 0 {
		return 0
	}
	return float64(c.Accepted) / float64(c.Generated)
}

// RunAblation sweeps the (scheme, heuristic) grid on a shared workload
// stream so cells are directly comparable: every grid cell sees exactly the
// same taskset draws. Tasksets are evaluated in parallel on the engine;
// results are identical for any worker count.
func RunAblation(cfg AblationConfig) ([]AblationCell, error) {
	r, err := runAblation(context.Background(), cfg, Hooks{})
	if err != nil {
		return nil, err
	}
	return r.Cells, nil
}

// AblationResult is the "ablation" campaign's result document: the
// results_version the draws came from plus the (scheme, heuristic) grid
// cells. The rest of the config is deliberately not echoed back so results
// stay byte-identical across settings (like Workers) that cannot move a draw.
type AblationResult struct {
	ResultsVersion int `json:"results_version"`
	Cells          []AblationCell
}

// ablationCellResult is one taskset draw's outcome across every
// (mode, scheme, heuristic) combo; exported fields let campaign checkpoints
// round-trip it through JSON.
type ablationCellResult struct {
	Generated bool
	Accepted  []bool
	Tightness []float64 // per-task mean when accepted
}

// runAblation is the campaign-hooked run behind RunAblation and the
// "ablation" spec.
func runAblation(ctx context.Context, cfg AblationConfig, hooks Hooks) (*AblationResult, error) {
	c := cfg.withDefaults()
	ver, err := resolveResultsVersion("ablation", c.ResultsVersion, hooks)
	if err != nil {
		return nil, err
	}
	c.ResultsVersion = int(ver)
	heuristics := []partition.Heuristic{partition.FirstFit, partition.BestFit, partition.WorstFit, partition.NextFit}
	modes := []bool{false}
	if c.NonPreemptiveToo {
		modes = append(modes, true)
	}

	// Flatten the (mode, scheme, heuristic) combos in reporting order.
	type combo struct {
		alloc core.Allocator
		h     partition.Heuristic
		np    bool
	}
	var combos []combo
	for _, np := range modes {
		for _, name := range c.Schemes {
			if np {
				name += "-np"
			}
			allocs, err := core.Resolve(name)
			if err != nil {
				return nil, fmt.Errorf("ablation: %w", err)
			}
			for _, h := range heuristics {
				combos = append(combos, combo{alloc: allocs[0], h: h, np: np})
			}
		}
	}

	// One engine cell per taskset draw: the draw is shared across every
	// combo (paired comparison), so the workload stream depends only on the
	// draw index — exactly the serial driver's historical stream.
	draws := make([]int, c.TasksetsPerCell)
	for t := range draws {
		draws[t] = t
	}
	if hooks.Total != nil {
		hooks.Total(len(draws))
	}
	results, err := engine.Run(ctx, draws, func(ctx context.Context, idx int, rng *rand.Rand, t int) (ablationCellResult, error) {
		w, err := taskgen.Generate(taskgen.DefaultParams(c.M, c.UtilFrac*float64(c.M)), rng)
		if err != nil {
			return ablationCellResult{}, nil
		}
		out := ablationCellResult{
			Generated: true,
			Accepted:  make([]bool, len(combos)),
			Tightness: make([]float64, len(combos)),
		}
		// The RT partition depends only on the heuristic; compute each once.
		parts := make(map[partition.Heuristic][]int, len(heuristics))
		for _, h := range heuristics {
			if p, err := partition.PartitionRT(w.RT, c.M, h); err == nil {
				parts[h] = p.CoreOf
			}
		}
		for i, cb := range combos {
			coreOf, ok := parts[cb.h]
			if !ok {
				continue
			}
			in, err := core.NewInput(c.M, w.RT, coreOf, w.Sec)
			if err != nil {
				return ablationCellResult{}, err
			}
			if r := cb.alloc.Allocate(in); r.Schedulable {
				out.Accepted[i] = true
				out.Tightness[i] = r.Cumulative / float64(len(w.Sec))
			}
		}
		return out, nil
	}, campaignEngineOptions[ablationCellResult](engine.Options{Workers: c.Workers, Seed: c.Seed, ResultsVersion: ver}, hooks))
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}

	cells := make([]AblationCell, len(combos))
	for i, cb := range combos {
		cells[i] = AblationCell{Scheme: cb.alloc.Name(), Heuristic: cb.h, NonPreemptive: cb.np}
	}
	tightSum := make([]float64, len(combos))
	for _, r := range results {
		if !r.Generated {
			continue
		}
		for i := range combos {
			cells[i].Generated++
			if r.Accepted[i] {
				cells[i].Accepted++
				tightSum[i] += r.Tightness[i]
			}
		}
	}
	for i := range cells {
		if cells[i].Accepted > 0 {
			cells[i].MeanTightness = tightSum[i] / float64(cells[i].Accepted)
		}
	}
	return &AblationResult{ResultsVersion: int(ver), Cells: cells}, nil
}
