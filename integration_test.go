// Integration tests: end-to-end checks of the paper's headline claims at
// reduced (but still meaningful) scale, guarding the numbers recorded in
// EXPERIMENTS.md against regressions.
package hydra_test

import (
	"testing"

	"hydra/internal/core"
	"hydra/internal/experiments"
	"hydra/internal/partition"
	"hydra/internal/workloads"
)

// Fig. 1 claim: HYDRA detects intrusions faster than SingleCore on the UAV
// case study at every platform size, with double-digit percentage
// improvement at full horizon.
func TestIntegrationFig1Claim(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon case study")
	}
	res, err := experiments.RunFig1(experiments.Fig1Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		hyd, sc := row.Schemes[0], row.Schemes[1]
		if row.ImprovementPct < 10 {
			t.Errorf("M=%d: improvement %.2f%% below the double-digit claim", row.M, row.ImprovementPct)
		}
		if hyd.Misses != 0 || sc.Misses != 0 {
			t.Errorf("M=%d: real-time deadline misses observed", row.M)
		}
		// ECDF domination: HYDRA's CDF is never below SingleCore's by more
		// than sampling noise at any plotted point.
		for i := range hyd.Series {
			h, s := hyd.Series[i][1], sc.Series[i][1]
			if h < s-0.05 {
				t.Errorf("M=%d: HYDRA CDF %0.3f below SingleCore %0.3f at x=%v",
					row.M, h, s, hyd.Series[i][0])
			}
		}
	}
	// Improvement grows markedly beyond 2 cores (paper: 19.8 -> 27.2/29.8).
	if res.Rows[1].ImprovementPct <= res.Rows[0].ImprovementPct {
		t.Errorf("improvement should grow from 2 to 4 cores: %v vs %v",
			res.Rows[0].ImprovementPct, res.Rows[1].ImprovementPct)
	}
}

// Fig. 2 claim: zero improvement at low utilization, approaching 100% at
// the top of the sweep, with HYDRA dominating everywhere.
func TestIntegrationFig2Claim(t *testing.T) {
	pts, err := experiments.RunFig2(experiments.Fig2Config{M: 2, TasksetsPerPoint: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].ImprovementPct != 0 {
		t.Errorf("lowest utilization improvement = %v, want 0", pts[0].ImprovementPct)
	}
	last := pts[len(pts)-1]
	if last.ImprovementPct < 90 {
		t.Errorf("highest utilization improvement = %v, want >= 90", last.ImprovementPct)
	}
	for _, p := range pts {
		if p.Accepted[0] < p.Accepted[1] {
			t.Errorf("U=%v: HYDRA accepted %d < SingleCore %d", p.TotalUtil, p.Accepted[0], p.Accepted[1])
		}
	}
}

// Fig. 3 claim: the HYDRA-vs-optimal gap is zero through medium utilization
// and bounded by ~22% at the top.
func TestIntegrationFig3Claim(t *testing.T) {
	pts, err := experiments.RunFig3(experiments.Fig3Config{TasksetsPerPoint: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.TotalUtil <= 1.2 && p.MeanGapPct != 0 {
			t.Errorf("U=%v: gap %v should be zero at low/medium utilization", p.TotalUtil, p.MeanGapPct)
		}
		if p.MaxGapPct > 30 {
			t.Errorf("U=%v: max gap %v far above the paper's ~22%% bound", p.TotalUtil, p.MaxGapPct)
		}
	}
}

// Every registered workload runs the whole pipeline: allocate with both
// schemes, verify with both analyses, and confirm HYDRA's cumulative
// tightness is never below SingleCore's on these case studies.
func TestIntegrationWorkloadPipeline(t *testing.T) {
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		part, err := partition.PartitionRT(w.RT, 4, partition.BestFit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in, err := core.NewInput(4, w.RT, part.CoreOf, w.Sec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hyd := core.Hydra(in, core.HydraOptions{})
		if !hyd.Schedulable {
			t.Fatalf("%s: HYDRA failed: %s", name, hyd.Reason)
		}
		if err := core.Verify(in, hyd); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := core.VerifyExact(in, hyd); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc := core.SingleCore(4, w.RT, w.Sec, partition.BestFit)
		if sc.Schedulable && hyd.Cumulative < sc.Cumulative-1e-9 {
			t.Errorf("%s: HYDRA tightness %v below SingleCore %v", name, hyd.Cumulative, sc.Cumulative)
		}
		// The explainer agrees with the plain run.
		ex := core.ExplainHydra(in)
		if !ex.Result.Schedulable || ex.Result.Cumulative != hyd.Cumulative {
			t.Errorf("%s: explainer diverged", name)
		}
	}
}
