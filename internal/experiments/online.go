package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hydra/internal/core"
	"hydra/internal/engine"
	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/taskgen"
)

// OnlineConfig parametrizes the dynamic-workload churn sweep — a scenario
// axis the paper never had: long-lived systems whose security tasksets churn
// (arrivals and departures) while the system runs, served by the incremental
// admission of internal/online. Zero values select: M = 2, the "hydra"
// scheme, base utilizations {0.3, 0.5} of M, departure rate 0.25, 120 churn
// operations over 10 independent system draws per point.
type OnlineConfig struct {
	M int
	// Schemes are the online-admissible scheme names to sweep (see
	// online.SupportedSchemes).
	Schemes []string
	// UtilFracs are the base-taskset total utilizations, as fractions of M.
	UtilFracs []float64
	// DepartRates are the per-operation probabilities that a previously
	// admitted dynamic task departs instead of a new one arriving.
	DepartRates []float64
	// Ops is the number of churn operations applied to each system.
	Ops int
	// SystemsPerCell is the number of independent system draws per
	// (scheme, utilization, rate) point.
	SystemsPerCell int
	// ColdEvery times a cold full allocation of the current taskset once
	// every this many admission attempts (the incremental-vs-cold latency
	// comparison). Zero selects 25.
	ColdEvery int
	Seed      int64
	Heuristic partition.Heuristic
	Workers   int
	// ResultsVersion pins the RNG family behind the system draws and churn
	// sequences (stats.RNGVersion: 1 = historical math/rand, 2 =
	// SplitMix64). Absent selects the default for new runs; inside a
	// campaign it must match the manifest's pinned version.
	ResultsVersion int `json:"results_version,omitempty"`
}

func (c *OnlineConfig) withDefaults() OnlineConfig {
	out := *c
	if out.M <= 0 {
		out.M = 2
	}
	if len(out.Schemes) == 0 {
		out.Schemes = []string{"hydra"}
	}
	if len(out.UtilFracs) == 0 {
		out.UtilFracs = []float64{0.3, 0.5}
	}
	if len(out.DepartRates) == 0 {
		out.DepartRates = []float64{0.25}
	}
	if out.Ops <= 0 {
		out.Ops = 120
	}
	if out.SystemsPerCell <= 0 {
		out.SystemsPerCell = 10
	}
	if out.ColdEvery <= 0 {
		out.ColdEvery = 25
	}
	return out
}

// OnlinePoint aggregates one (scheme, base utilization, departure rate)
// churn sweep point. Every field is deterministic per seed — wall-clock
// latencies live in the result's separate Timing section, so this part of
// the result document is byte-stable across runs and machines.
type OnlinePoint struct {
	Scheme     string
	TotalUtil  float64 // base-taskset utilization (absolute, = frac * M)
	DepartRate float64
	Systems    int // draws whose base taskset produced a live system
	Infeasible int // draws rejected at creation (base taskset not admittable)
	Attempts   int // dynamic admission attempts over all live systems
	Admitted   int
	Rejected   int
	Removed    int
	// ColdAllocations counts the timed cold full allocations (one every
	// ColdEvery attempts) — the analysis-operation count behind the cold
	// side of the timing comparison.
	ColdAllocations int
	// AcceptanceRatio is Admitted/Attempts.
	AcceptanceRatio float64
}

// OnlineTiming is one point's wall-clock latency summary — machine-relative
// by nature (it varies run to run and host to host), which is why it is kept
// out of OnlinePoint. The identity fields mirror the Points entry at the
// same index.
type OnlineTiming struct {
	Scheme     string
	TotalUtil  float64
	DepartRate float64
	// IncrementalMeanUS is the mean wall-clock microseconds of one
	// incremental AddSecurity admission on the warm system state.
	IncrementalMeanUS float64
	// ColdMeanUS is the mean wall-clock microseconds of a cold full
	// allocation (partition + scheme) of the same system's current taskset,
	// sampled every ColdEvery attempts.
	ColdMeanUS float64
	// SpeedupX is ColdMeanUS / IncrementalMeanUS (0 when either is missing).
	SpeedupX float64
}

// OnlineResult is the churn sweep's result document. ResultsVersion records
// the RNG family the draws came from; Points is the seed-deterministic
// (byte-stable) section; Timing is the machine-relative section,
// index-aligned with Points.
type OnlineResult struct {
	ResultsVersion int            `json:"results_version"`
	Points         []OnlinePoint  `json:"points"`
	Timing         []OnlineTiming `json:"timing"`
}

// onlineCellResult is one (scheme, util, rate, draw) cell outcome; exported
// fields so campaign checkpoints round-trip it through JSON.
type onlineCellResult struct {
	Created  bool
	Attempts int
	Admitted int
	Rejected int
	Removed  int
	IncNS    int64
	ColdNS   int64
	ColdOps  int
}

// RunOnline executes the churn sweep.
func RunOnline(cfg OnlineConfig) (*OnlineResult, error) {
	return runOnline(context.Background(), cfg, Hooks{})
}

// runOnline is the campaign-hooked driver behind RunOnline and the "online"
// spec.
func runOnline(ctx context.Context, cfg OnlineConfig, hooks Hooks) (*OnlineResult, error) {
	c := cfg.withDefaults()
	ver, err := resolveResultsVersion("online", c.ResultsVersion, hooks)
	if err != nil {
		return nil, err
	}
	c.ResultsVersion = int(ver)
	for _, name := range c.Schemes {
		if _, err := core.Resolve(name); err != nil {
			return nil, fmt.Errorf("online: %w", err)
		}
	}
	type cell struct {
		s, u, r, t int
	}
	var cells []cell
	for s := range c.Schemes {
		for u := range c.UtilFracs {
			for r := range c.DepartRates {
				for t := 0; t < c.SystemsPerCell; t++ {
					cells = append(cells, cell{s: s, u: u, r: r, t: t})
				}
			}
		}
	}
	if hooks.Total != nil {
		hooks.Total(len(cells))
	}

	results, err := engine.Run(ctx, cells, func(ctx context.Context, idx int, rng *rand.Rand, cl cell) (onlineCellResult, error) {
		return runOnlineCell(c, c.Schemes[cl.s], c.UtilFracs[cl.u], c.DepartRates[cl.r], rng)
	}, campaignEngineOptions[onlineCellResult](engine.Options{
		Workers: c.Workers,
		Seed:    c.Seed,
		// Stream by (scheme, util, rate, draw) so the draws stay stable when
		// any sweep axis is resized.
		Stream: func(idx int) int64 {
			cl := cells[idx]
			return int64(cl.s)<<48 | int64(cl.u)<<40 | int64(cl.r)<<32 | int64(cl.t)
		},
		ResultsVersion: ver,
	}, hooks))
	if err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}

	out := &OnlineResult{ResultsVersion: int(ver)}
	i := 0
	for s := range c.Schemes {
		for u := range c.UtilFracs {
			for r := range c.DepartRates {
				pt := OnlinePoint{
					Scheme:     c.Schemes[s],
					TotalUtil:  c.UtilFracs[u] * float64(c.M),
					DepartRate: c.DepartRates[r],
				}
				tm := OnlineTiming{
					Scheme:     pt.Scheme,
					TotalUtil:  pt.TotalUtil,
					DepartRate: pt.DepartRate,
				}
				for t := 0; t < c.SystemsPerCell; t++ {
					res := results[i]
					i++
					if !res.Created {
						pt.Infeasible++
						continue
					}
					pt.Systems++
					pt.Attempts += res.Attempts
					pt.Admitted += res.Admitted
					pt.Rejected += res.Rejected
					pt.Removed += res.Removed
					pt.ColdAllocations += res.ColdOps
					tm.IncrementalMeanUS += float64(res.IncNS)
					tm.ColdMeanUS += float64(res.ColdNS)
				}
				if pt.Attempts > 0 {
					pt.AcceptanceRatio = float64(pt.Admitted) / float64(pt.Attempts)
					tm.IncrementalMeanUS /= float64(pt.Attempts) * 1e3
				}
				if pt.ColdAllocations > 0 {
					tm.ColdMeanUS /= float64(pt.ColdAllocations) * 1e3
				}
				if tm.IncrementalMeanUS > 0 && tm.ColdMeanUS > 0 {
					tm.SpeedupX = tm.ColdMeanUS / tm.IncrementalMeanUS
				}
				out.Points = append(out.Points, pt)
				out.Timing = append(out.Timing, tm)
			}
		}
	}
	return out, nil
}

// runOnlineCell churns one system draw: create from a base workload, then
// alternate dynamic security-task arrivals (incremental admission, timed)
// with departures of previously admitted dynamic tasks, timing a cold full
// allocation of the running taskset every ColdEvery attempts for comparison.
func runOnlineCell(c OnlineConfig, scheme string, utilFrac, rate float64, rng *rand.Rand) (onlineCellResult, error) {
	var res onlineCellResult
	var sys *online.System
	// A draw can be unsplittable or unschedulable; both count as an
	// infeasible base system (like fig2's generated filter). Retries consume
	// the cell's own stream, so they stay deterministic.
	for attempt := 0; attempt < 10 && sys == nil; attempt++ {
		w, err := taskgen.Generate(taskgen.DefaultParams(c.M, utilFrac*float64(c.M)), rng)
		if err != nil {
			continue
		}
		s, err := online.NewSystem("cell", scheme, c.Heuristic, c.M, w.RT, nil, w.Sec)
		if err != nil {
			continue
		}
		sys = s
	}
	if sys == nil {
		return res, nil
	}
	res.Created = true

	allocs, err := core.Resolve(scheme)
	if err != nil {
		return res, err
	}
	var dynamic []string
	for op := 0; op < c.Ops; op++ {
		if len(dynamic) > 0 && rng.Float64() < rate {
			k := rng.Intn(len(dynamic))
			if _, err := sys.Remove(dynamic[k]); err != nil {
				return res, err
			}
			dynamic = append(dynamic[:k], dynamic[k+1:]...)
			res.Removed++
			continue
		}
		tdes := 1000 + 2000*rng.Float64()
		task := rts.SecurityTask{
			Name: fmt.Sprintf("dyn%04d", op),
			C:    (0.002 + 0.03*rng.Float64()) * tdes,
			TDes: tdes,
			TMax: 10 * tdes,
		}
		start := time.Now() //lint:allow detpath feeds IncNS, a Timing-section field excluded from deterministic points
		_, err := sys.AddSecurity(task)
		res.IncNS += time.Since(start).Nanoseconds() //lint:allow detpath machine-relative timing, not part of the deterministic result
		res.Attempts++
		switch {
		case err == nil:
			res.Admitted++
			dynamic = append(dynamic, task.Name)
		default:
			var rej *online.Rejection
			if !errors.As(err, &rej) {
				return res, err
			}
			res.Rejected++
		}
		if res.Attempts%c.ColdEvery == 0 {
			rt, sec := sys.Snapshot().Tasks()
			start := time.Now() //lint:allow detpath feeds ColdNS, a Timing-section field excluded from deterministic points
			if p, err := partition.PartitionRT(rt, c.M, c.Heuristic); err == nil {
				if in, err := core.NewInput(c.M, rt, p.CoreOf, sec); err == nil {
					_ = allocs[0].Allocate(in)
				}
			}
			res.ColdNS += time.Since(start).Nanoseconds() //lint:allow detpath machine-relative timing, not part of the deterministic result
			res.ColdOps++
		}
	}
	return res, nil
}
