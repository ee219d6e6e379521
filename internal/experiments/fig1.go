package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"hydra/internal/core"
	"hydra/internal/detect"
	"hydra/internal/engine"
	"hydra/internal/partition"
	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/uav"
)

// Fig1Config parametrizes the UAV case study (Sec. IV-A). Zero values select
// the paper's setup.
type Fig1Config struct {
	Cores []int // platform sizes; default {2, 4, 8}
	// Schemes selects the compared allocation schemes by registry name (see
	// core.Names); default {"hydra", "singlecore"}. ImprovementPct reports
	// how much faster Schemes[0]'s mean detection is relative to Schemes[1].
	Schemes    []string
	Horizon    sim.Time // observation window; default 500 s
	Attacks    int      // injected attacks per (scheme, M); default 1000
	Seed       int64    // RNG seed for attack sampling
	CDFPoints  int      // resolution of the returned ECDF series; default 50
	CDFRangeMs float64  // x-axis cap of the series; default 50000 ms (paper)
	Workers    int      // parallel grid workers; 0 = GOMAXPROCS
	// ResultsVersion pins the RNG family behind the attack draws
	// (stats.RNGVersion: 1 = historical math/rand, 2 = SplitMix64).
	// Absent selects the default for new runs; inside a campaign it must
	// match the manifest's pinned version. The result document carries the
	// resolved value.
	ResultsVersion int `json:"results_version,omitempty"`
}

func (c *Fig1Config) withDefaults() Fig1Config {
	out := *c
	if len(out.Cores) == 0 {
		out.Cores = []int{2, 4, 8}
	}
	if len(out.Schemes) == 0 {
		out.Schemes = []string{"hydra", "singlecore"}
	}
	if out.Horizon <= 0 {
		out.Horizon = 500_000 // 500 s in ms
	}
	if out.Attacks <= 0 {
		out.Attacks = 1000
	}
	if out.CDFPoints <= 0 {
		out.CDFPoints = 50
	}
	if out.CDFRangeMs <= 0 {
		out.CDFRangeMs = 50_000
	}
	return out
}

// Fig1Scheme is the measured outcome of one allocation scheme at one M.
type Fig1Scheme struct {
	Scheme        string
	Allocation    *core.Result
	MeanDetection float64      // mean detection latency over detected attacks (ms)
	WorstCase     float64      // analytical worst case over ALL attack instants (ms)
	Censored      int          // attacks with no detecting job inside the horizon
	Misses        int          // deadline misses observed in simulation (should be 0)
	ECDF          *stats.ECDF  // raw detection-time distribution
	Series        [][2]float64 // plot-ready (x, F(x)) pairs
}

// Fig1Row compares the configured schemes for one platform size, matching
// one subplot of Fig. 1. Schemes is parallel to Fig1Config.Schemes.
type Fig1Row struct {
	M              int
	Schemes        []Fig1Scheme
	ImprovementPct float64 // (mean_1 - mean_0)/mean_1 * 100 for the first two schemes
}

// Fig1Result is the full figure.
type Fig1Result struct {
	Config Fig1Config
	Rows   []Fig1Row
}

// RunFig1 reproduces Fig. 1: for each platform size, allocate the UAV
// security workload with every configured scheme, simulate the resulting
// schedules over the observation window, inject the *same* random attack
// sequence against all of them (paired comparison), and report
// detection-time ECDFs plus the mean improvement of the first scheme over
// the second. The paper reports ~19.8 % / 27.2 % / 29.8 % faster mean
// detection for HYDRA over SingleCore at 2 / 4 / 8 cores. Platform sizes are
// evaluated in parallel on the engine; results are identical for any worker
// count.
func RunFig1(cfg Fig1Config) (*Fig1Result, error) {
	return runFig1(context.Background(), cfg, Hooks{})
}

// runFig1 is the campaign-hooked run behind RunFig1 and the "fig1"
// spec. One engine cell per platform size; Fig1Row round-trips through JSON
// (including the raw ECDF samples), so checkpointed rows replay losslessly.
func runFig1(ctx context.Context, cfg Fig1Config, hooks Hooks) (*Fig1Result, error) {
	c := cfg.withDefaults()
	ver, err := resolveResultsVersion("fig1", c.ResultsVersion, hooks)
	if err != nil {
		return nil, err
	}
	c.ResultsVersion = int(ver) // the result document records the resolved version
	allocs, err := core.Resolve(c.Schemes...)
	if err != nil {
		return nil, fmt.Errorf("fig1: %w", err)
	}
	if len(allocs) < 2 {
		return nil, fmt.Errorf("fig1: need at least two schemes to compare, got %d", len(allocs))
	}
	rt := uav.RTTasks()
	sec := uav.SecurityTaskSet()
	if hooks.Total != nil {
		hooks.Total(len(c.Cores))
	}

	rows, err := engine.Run(ctx, c.Cores, func(ctx context.Context, idx int, rng *rand.Rand, m int) (Fig1Row, error) {
		// Identical attack sequence for every scheme: paired comparison.
		attacks := detect.SampleAttacks(rng, c.Attacks, len(sec), c.Horizon, 0.8)

		part, err := partition.PartitionRT(rt, m, partition.BestFit)
		if err != nil {
			return Fig1Row{}, fmt.Errorf("M=%d: partition RT tasks: %w", m, err)
		}
		in, err := core.NewInput(m, rt, part.CoreOf, sec)
		if err != nil {
			return Fig1Row{}, fmt.Errorf("M=%d: %w", m, err)
		}
		row := Fig1Row{M: m}
		for _, a := range allocs {
			res := a.Allocate(in)
			ms, err := measureScheme(core.EffectiveInput(in, res), res, attacks, c)
			if err != nil {
				return Fig1Row{}, fmt.Errorf("M=%d %s: %w", m, a.Name(), err)
			}
			row.Schemes = append(row.Schemes, *ms)
		}
		if base := row.Schemes[1].MeanDetection; base > 0 {
			row.ImprovementPct = (base - row.Schemes[0].MeanDetection) / base * 100
		}
		return row, nil
	}, campaignEngineOptions[Fig1Row](engine.Options{
		Workers: c.Workers,
		Seed:    c.Seed,
		// Stream by platform size: the attack sequence for a given (seed, M)
		// does not depend on which other sizes are swept.
		Stream:         func(idx int) int64 { return int64(c.Cores[idx]) },
		ResultsVersion: ver,
	}, hooks))
	if err != nil {
		return nil, fmt.Errorf("fig1: %w", err)
	}
	return &Fig1Result{Config: c, Rows: rows}, nil
}

// measureScheme simulates one allocation and measures the attack campaign.
func measureScheme(in *core.Input, res *core.Result, attacks []detect.Attack, c Fig1Config) (*Fig1Scheme, error) {
	if !res.Schedulable {
		return nil, fmt.Errorf("%s allocation unschedulable: %s", res.Scheme, res.Reason)
	}
	if err := core.Verify(in, res); err != nil {
		return nil, fmt.Errorf("%s allocation failed verification: %w", res.Scheme, err)
	}
	perCore, taskCore, taskIndex, err := BuildSimSpecs(in, res)
	if err != nil {
		return nil, err
	}
	trace, err := sim.SimulateSystem(perCore, c.Horizon)
	if err != nil {
		return nil, err
	}
	campaign, err := detect.NewCampaign(trace, taskCore, taskIndex)
	if err != nil {
		return nil, err
	}
	ds, err := campaign.Run(attacks)
	if err != nil {
		return nil, err
	}
	lats := detect.Latencies(ds)
	e := stats.NewECDF(lats)
	// Analytical worst case: the slowest-detected surface over every
	// possible attack instant, not only the sampled ones.
	var worst float64
	for i := range taskCore {
		jobs := trace.Cores[taskCore[i]].JobsOf(taskIndex[i])
		if w, ok := detect.WorstCaseDetection(jobs); ok && w > worst {
			worst = w
		}
	}
	return &Fig1Scheme{
		Scheme:        res.Scheme,
		Allocation:    res,
		MeanDetection: e.Mean(),
		WorstCase:     worst,
		Censored:      len(ds) - len(lats),
		Misses:        trace.TotalMisses(),
		ECDF:          e,
		Series:        e.Series(c.CDFRangeMs, c.CDFPoints),
	}, nil
}
