// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices called out in
// DESIGN.md. Each figure bench runs a scaled-down but shape-preserving
// version of the experiment and reports the headline metric through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the paper's
// qualitative results alongside cost numbers.
package hydra_test

import (
	"testing"

	"hydra/internal/core"
	"hydra/internal/experiments"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
	"hydra/internal/uav"
)

// BenchmarkTable1SecurityTasks regenerates Table I (the security-task
// inventory); the metric is the number of tasks rendered.
func BenchmarkTable1SecurityTasks(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.Table1())
		if experiments.FormatTable1() == "" {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(float64(rows), "tasks")
}

// BenchmarkFig1DetectionCDF regenerates Fig. 1 at reduced scale (2 and 4
// cores, 60 s window, 200 attacks) and reports HYDRA's mean detection-time
// improvement over SingleCore (the paper reports 19.8–29.8 % at full scale).
func BenchmarkFig1DetectionCDF(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(experiments.Fig1Config{
			Cores: []int{2, 4}, Horizon: 60_000, Attacks: 200, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		improvement = 0
		for _, row := range res.Rows {
			improvement += row.ImprovementPct
		}
		improvement /= float64(len(res.Rows))
	}
	b.ReportMetric(improvement, "improvement_%")
}

// BenchmarkFig2AcceptanceRatio regenerates one Fig. 2 subplot (M = 2) at
// reduced sampling and reports the mean acceptance-ratio improvement across
// the utilization sweep.
func BenchmarkFig2AcceptanceRatio(b *testing.B) {
	var meanImp float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig2(experiments.Fig2Config{
			M: 2, TasksetsPerPoint: 20, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		meanImp = 0
		for _, p := range pts {
			meanImp += p.ImprovementPct
		}
		meanImp /= float64(len(pts))
	}
	b.ReportMetric(meanImp, "mean_improvement_%")
}

// BenchmarkFig3OptimalGap regenerates Fig. 3 at reduced sampling and reports
// the maximum mean tightness gap across utilization levels (paper: <= 22 %).
func BenchmarkFig3OptimalGap(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig3(experiments.Fig3Config{
			TasksetsPerPoint: 10, UtilStepFrac: 0.1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range pts {
			if p.MeanGapPct > worst {
				worst = p.MeanGapPct
			}
		}
	}
	b.ReportMetric(worst, "max_mean_gap_%")
}

// benchWorkload draws a fixed mid-utilization 4-core workload.
func benchWorkload(b *testing.B, seed int64) (*core.Input, *taskgen.Workload) {
	b.Helper()
	rng := stats.SplitRNG(seed, 0)
	w, err := taskgen.Generate(taskgen.DefaultParams(4, 2.4), rng)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.PartitionRT(w.RT, 4, partition.BestFit)
	if err != nil {
		b.Fatal(err)
	}
	in, err := core.NewInput(4, w.RT, part.CoreOf, w.Sec)
	if err != nil {
		b.Fatal(err)
	}
	return in, w
}

// BenchmarkHydraAllocation measures the cost of one HYDRA run (Algorithm 1,
// closed-form period adaptation) on a 4-core synthetic workload.
func BenchmarkHydraAllocation(b *testing.B) {
	in, _ := benchWorkload(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := core.Hydra(in, core.HydraOptions{}); !r.Schedulable {
			b.Fatal(r.Reason)
		}
	}
}

// BenchmarkAllocatorHotPath measures the end-to-end allocation hot path per
// scheme: RT partitioning with incremental-RTA admission, allocation on a
// fresh Input (so per-Input caches are rebuilt, as a cold serving request
// would), and linear verification — the work a cold /v1/allocate performs
// behind the JSON/HTTP layers. Tracked by the benchjson -compare CI gate so
// the incremental schedulability-state speedup stays locked in.
func BenchmarkAllocatorHotPath(b *testing.B) {
	rng := stats.SplitRNG(41, 0)
	w, err := taskgen.Generate(taskgen.DefaultParams(4, 2.4), rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, scheme := range []string{"hydra", "hydra-least-loaded", "hydra-np", "singlecore", "partition-best-fit"} {
		alloc := core.MustLookup(scheme)
		b.Run(scheme, func(b *testing.B) {
			b.ReportAllocs()
			accepted := 0
			for i := 0; i < b.N; i++ {
				part, err := partition.PartitionRT(w.RT, 4, partition.BestFit)
				if err != nil {
					b.Fatal(err)
				}
				in, err := core.NewInput(4, w.RT, part.CoreOf, w.Sec)
				if err != nil {
					b.Fatal(err)
				}
				r := alloc.Allocate(in)
				if r.Schedulable {
					accepted++
					if err := core.Verify(in, r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(accepted)/float64(b.N), "accept_ratio")
		})
	}
}

// BenchmarkAblationPeriodAdaptation compares the closed form against the
// GP-solver route for the same period-adaptation subproblem — the ablation
// for the paper's Appendix reformulation.
func BenchmarkAblationPeriodAdaptation(b *testing.B) {
	s := rts.SecurityTask{Name: "s", C: 50, TDes: 1000, TMax: 10000}
	load := rts.CoreLoad{SumC: 120, SumU: 0.55}
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := core.PeriodAdaptation(s, load); !ok {
				b.Fatal("infeasible")
			}
		}
	})
	b.Run("gp-solver", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := core.PeriodAdaptationGP(s, load); !ok {
				b.Fatal("infeasible")
			}
		}
	})
}

// BenchmarkAblationAllocHeuristics compares HYDRA's commitment policies.
func BenchmarkAblationAllocHeuristics(b *testing.B) {
	in, _ := benchWorkload(b, 11)
	for _, pol := range []core.Policy{core.BestTightness, core.FirstFeasible, core.LeastLoaded} {
		b.Run(pol.String(), func(b *testing.B) {
			var cum float64
			for i := 0; i < b.N; i++ {
				r := core.Hydra(in, core.HydraOptions{Policy: pol})
				if !r.Schedulable {
					b.Fatal(r.Reason)
				}
				cum = r.Cumulative
			}
			b.ReportMetric(cum, "cum_tightness")
		})
	}
}

// BenchmarkAblationRTPartition compares the downstream effect of the four
// real-time partition heuristics on HYDRA's cumulative tightness.
func BenchmarkAblationRTPartition(b *testing.B) {
	rng := stats.SplitRNG(13, 0)
	w, err := taskgen.Generate(taskgen.DefaultParams(4, 2.4), rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []partition.Heuristic{partition.FirstFit, partition.BestFit, partition.WorstFit, partition.NextFit} {
		b.Run(h.String(), func(b *testing.B) {
			var cum float64
			for i := 0; i < b.N; i++ {
				part, err := partition.PartitionRT(w.RT, 4, h)
				if err != nil {
					b.Skip("heuristic cannot partition this draw")
				}
				in, err := core.NewInput(4, w.RT, part.CoreOf, w.Sec)
				if err != nil {
					b.Fatal(err)
				}
				r := core.Hydra(in, core.HydraOptions{})
				if r.Schedulable {
					cum = r.Cumulative
				}
			}
			b.ReportMetric(cum, "cum_tightness")
		})
	}
}

// BenchmarkAblationOptimalRefinement compares the greedy per-core periods
// against the sequential-GP joint refinement inside the optimal baseline.
func BenchmarkAblationOptimalRefinement(b *testing.B) {
	rng := stats.SplitRNG(17, 0)
	w, err := taskgen.Generate(taskgen.Params{
		M: 2, NR: 6, NS: 4, TotalUtil: 1.6,
		RTPeriodMin: 10, RTPeriodMax: 1000,
		SecTDesMin: 1000, SecTDesMax: 3000,
		TMaxFactor: 10, SecUtilFraction: 0.3, MinTaskUtil: 0.001,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.PartitionRT(w.RT, 2, partition.BestFit)
	if err != nil {
		b.Fatal(err)
	}
	in, err := core.NewInput(2, w.RT, part.CoreOf, w.Sec)
	if err != nil {
		b.Fatal(err)
	}
	for _, refine := range []bool{false, true} {
		name := "greedy"
		if refine {
			name = "sequential-gp"
		}
		b.Run(name, func(b *testing.B) {
			var cum float64
			for i := 0; i < b.N; i++ {
				r := core.Optimal(in, core.OptimalOptions{RefineJointGP: refine})
				if !r.Schedulable {
					b.Skip("instance infeasible")
				}
				cum = r.Cumulative
			}
			b.ReportMetric(cum, "cum_tightness")
		})
	}
}

// BenchmarkUAVCaseStudyAllocation measures HYDRA on the concrete UAV + Table
// I workload across platform sizes.
func BenchmarkUAVCaseStudyAllocation(b *testing.B) {
	rt := uav.RTTasks()
	sec := uav.SecurityTaskSet()
	for _, m := range []int{2, 4, 8} {
		b.Run(coresName(m), func(b *testing.B) {
			part, err := partition.PartitionRT(rt, m, partition.BestFit)
			if err != nil {
				b.Fatal(err)
			}
			in, err := core.NewInput(m, rt, part.CoreOf, sec)
			if err != nil {
				b.Fatal(err)
			}
			var cum float64
			for i := 0; i < b.N; i++ {
				r := core.Hydra(in, core.HydraOptions{})
				if !r.Schedulable {
					b.Fatal(r.Reason)
				}
				cum = r.Cumulative
			}
			b.ReportMetric(cum, "cum_tightness")
		})
	}
}

func coresName(m int) string {
	return map[int]string{2: "2cores", 4: "4cores", 8: "8cores"}[m]
}

// BenchmarkTasksetGeneration measures the Randfixedsum-based generator.
func BenchmarkTasksetGeneration(b *testing.B) {
	rng := stats.SplitRNG(19, 0)
	p := taskgen.DefaultParams(4, 2.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taskgen.Generate(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation500s measures the discrete-event simulator on the UAV
// 2-core configuration over the paper's full 500 s window.
func BenchmarkSimulation500s(b *testing.B) {
	rt := uav.RTTasks()
	sec := uav.SecurityTaskSet()
	part, err := partition.PartitionRT(rt, 2, partition.BestFit)
	if err != nil {
		b.Fatal(err)
	}
	in, err := core.NewInput(2, rt, part.CoreOf, sec)
	if err != nil {
		b.Fatal(err)
	}
	res := core.Hydra(in, core.HydraOptions{})
	perCore, _, _, err := experiments.BuildSimSpecs(in, res)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateSystem(perCore, 500_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactVsLinearVerification compares the cost of the paper's
// linear-bound verification against the exact ceiling-based RTA check.
func BenchmarkExactVsLinearVerification(b *testing.B) {
	in, _ := benchWorkload(b, 23)
	res := core.Hydra(in, core.HydraOptions{})
	if !res.Schedulable {
		b.Fatal(res.Reason)
	}
	b.Run("linear-eq6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.Verify(in, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-rta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.VerifyExact(in, res); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBreakdownAnalysis measures the designer-facing sensitivity tools.
func BenchmarkBreakdownAnalysis(b *testing.B) {
	in, _ := benchWorkload(b, 29)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BreakdownSecurityScale(in, core.HydraOptions{}, 16, 1e-2); err != nil {
			b.Fatal(err)
		}
	}
}
