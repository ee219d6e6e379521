package experiments

import (
	"reflect"
	"strings"
	"testing"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/uav"
)

func TestBuildSimSpecs(t *testing.T) {
	rt := []rts.RTTask{
		rts.NewRTTask("fast", 2, 10),
		rts.NewRTTask("slow", 5, 100),
	}
	sec := []rts.SecurityTask{
		{Name: "s0", C: 5, TDes: 200, TMax: 2000},
		{Name: "s1", C: 5, TDes: 300, TMax: 1000},
	}
	in, err := core.NewInput(2, rt, []int{0, 1}, sec)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Hydra(in, core.HydraOptions{})
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	perCore, taskCore, taskIndex, err := BuildSimSpecs(in, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(perCore) != 2 {
		t.Fatalf("cores = %d", len(perCore))
	}
	// Every security task spec must be findable via the returned maps and be
	// in the low-priority band; RT specs in the high band.
	for i := range sec {
		spec := perCore[taskCore[i]][taskIndex[i]]
		if spec.Name != sec[i].Name {
			t.Fatalf("mapping broken for %s: got %s", sec[i].Name, spec.Name)
		}
		if spec.Prio < secPrioBase {
			t.Fatalf("security task %s in RT priority band: %d", spec.Name, spec.Prio)
		}
		if spec.T != res.Periods[i] {
			t.Fatalf("security period mismatch: %v vs %v", spec.T, res.Periods[i])
		}
	}
	for c := range perCore {
		for _, spec := range perCore[c] {
			if spec.Kind == 0 && spec.Prio >= secPrioBase { // KindRT
				t.Fatalf("RT task %s in security band", spec.Name)
			}
		}
	}
	// s1 has smaller TMax: higher security priority than s0.
	var prio0, prio1 int
	for c := range perCore {
		for _, spec := range perCore[c] {
			if spec.Name == "s0" {
				prio0 = spec.Prio
			}
			if spec.Name == "s1" {
				prio1 = spec.Prio
			}
		}
	}
	if prio1 >= prio0 {
		t.Fatalf("s1 (TMax=1000) must outrank s0 (TMax=2000): %d vs %d", prio1, prio0)
	}
	// Unschedulable results must be rejected.
	if _, _, _, err := BuildSimSpecs(in, &core.Result{Schedulable: false}); err == nil {
		t.Fatal("unschedulable result must error")
	}
}

func TestRunFig1SmallScale(t *testing.T) {
	r, err := RunFig1(Fig1Config{Cores: []int{2, 4}, Horizon: 100_000, Attacks: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		hyd, sc := row.Schemes[0], row.Schemes[1]
		if hyd.Misses != 0 || sc.Misses != 0 {
			t.Fatalf("M=%d: deadline misses in simulation: %d/%d", row.M, hyd.Misses, sc.Misses)
		}
		if hyd.MeanDetection <= 0 || sc.MeanDetection <= 0 {
			t.Fatalf("M=%d: zero mean detection", row.M)
		}
		if hyd.Scheme != "hydra" || sc.Scheme != "singlecore" {
			t.Fatalf("M=%d: scheme order broken: %s/%s", row.M, hyd.Scheme, sc.Scheme)
		}
		// The paper's headline: HYDRA detects faster than SingleCore.
		if row.ImprovementPct <= 0 {
			t.Fatalf("M=%d: HYDRA should beat SingleCore, improvement=%v", row.M, row.ImprovementPct)
		}
		// ECDF series sane: last point at the configured range, monotone.
		s := hyd.Series
		if len(s) == 0 || s[len(s)-1][0] != 50_000 {
			t.Fatalf("series range wrong: %v", s[len(s)-1])
		}
		for i := 1; i < len(s); i++ {
			if s[i][1] < s[i-1][1] {
				t.Fatalf("non-monotone ECDF series at %d", i)
			}
		}
	}
}

func TestRunFig1Deterministic(t *testing.T) {
	cfg := Fig1Config{Cores: []int{2}, Horizon: 60_000, Attacks: 100, Seed: 9}
	a, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0].Schemes[0].MeanDetection != b.Rows[0].Schemes[0].MeanDetection {
		t.Fatal("same seed must reproduce identical results")
	}
}

func TestRunFig2SmallScale(t *testing.T) {
	pts, err := RunFig2(Fig2Config{M: 2, TasksetsPerPoint: 15, UtilStepFrac: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("points = %d, want 9 (0.1..0.9)", len(pts))
	}
	// Low utilization: both schemes accept everything; improvement 0.
	if pts[0].ImprovementPct != 0 {
		t.Fatalf("lowest utilization should have 0 improvement, got %v", pts[0].ImprovementPct)
	}
	if pts[0].Ratio(0) != 1 || pts[0].Ratio(1) != 1 {
		t.Fatalf("lowest utilization should accept all: %v / %v", pts[0].Ratio(0), pts[0].Ratio(1))
	}
	// Highest utilization: SingleCore collapses, improvement large.
	last := pts[len(pts)-1]
	if last.ImprovementPct < 50 {
		t.Fatalf("highest utilization improvement = %v, want >= 50", last.ImprovementPct)
	}
	// HYDRA acceptance dominates SingleCore at every point.
	for _, p := range pts {
		if p.Accepted[0] < p.Accepted[1] {
			t.Fatalf("U=%v: HYDRA accepted %d < SingleCore %d", p.TotalUtil, p.Accepted[0], p.Accepted[1])
		}
	}
}

// The tentpole guarantee at the driver level: the full acceptance-ratio
// sweep is byte-identical for 1 worker and 8 workers under the same seed.
func TestRunFig2DeterministicAcrossWorkers(t *testing.T) {
	base := Fig2Config{M: 2, TasksetsPerPoint: 10, UtilStepFrac: 0.15, Seed: 11}
	one := base
	one.Workers = 1
	eight := base
	eight.Workers = 8
	a, err := RunFig2(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig2(eight)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fig2 results differ between 1 and 8 workers")
	}
}

// Schemes are selected by registry name; unknown names fail fast and custom
// scheme lists flow through to the per-point acceptance counts.
func TestRunFig2SchemeSelection(t *testing.T) {
	if _, err := RunFig2(Fig2Config{M: 2, TasksetsPerPoint: 2, UtilStepFrac: 0.3, Schemes: []string{"hydra", "bogus"}}); err == nil {
		t.Fatal("unknown scheme must error")
	}
	pts, err := RunFig2(Fig2Config{
		M: 2, TasksetsPerPoint: 10, UtilStepFrac: 0.3, Seed: 7,
		Schemes: []string{"hydra", "partition-best-fit", "singlecore"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if len(p.Schemes) != 3 || len(p.Accepted) != 3 {
			t.Fatalf("scheme columns missing: %+v", p)
		}
		// Period adaptation dominates the fixed-period bin-packing baseline.
		if p.Accepted[0] < p.Accepted[1] {
			t.Fatalf("U=%v: hydra %d < partition baseline %d", p.TotalUtil, p.Accepted[0], p.Accepted[1])
		}
	}
}

func TestRunFig2RejectsM1(t *testing.T) {
	if _, err := RunFig2(Fig2Config{M: 1}); err == nil {
		t.Fatal("M=1 must error (SingleCore undefined)")
	}
}

func TestRunFig3SmallScale(t *testing.T) {
	pts, err := RunFig3(Fig3Config{TasksetsPerPoint: 8, UtilStepFrac: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Gap must be within [0, 100] and zero at the lowest utilization
	// (paper: no degradation at low/medium utilization).
	for _, p := range pts {
		if p.MeanGapPct < 0 || p.MeanGapPct > 100 || p.MaxGapPct < p.MeanGapPct {
			t.Fatalf("gap out of range: %+v", p)
		}
	}
	if pts[0].MeanGapPct != 0 {
		t.Fatalf("low-utilization gap should be 0, got %v", pts[0].MeanGapPct)
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("Table I must list 6 tasks, got %d", len(rows))
	}
	var tripwire, bro int
	for _, r := range rows {
		switch r.Application {
		case "Tripwire":
			tripwire++
		case "Bro":
			bro++
		default:
			t.Fatalf("unknown application %q", r.Application)
		}
		if r.C <= 0 || r.TDes <= 0 || r.TMax < r.TDes {
			t.Fatalf("invalid parameters in row %+v", r)
		}
	}
	if tripwire != 5 || bro != 1 {
		t.Fatalf("expected 5 Tripwire + 1 Bro, got %d + %d", tripwire, bro)
	}
	text := FormatTable1()
	if !strings.Contains(text, "tw-executables") || !strings.Contains(text, "Bro") {
		t.Fatalf("formatted table incomplete:\n%s", text)
	}
}

func TestUAVWorkloadSchedulableSingleCore(t *testing.T) {
	// The SingleCore baseline at M=2 requires the whole UAV RT workload to
	// fit one core — a documented design constraint of the case study.
	rt := uav.RTTasks()
	if _, err := partition.PartitionRT(rt, 1, partition.BestFit); err != nil {
		t.Fatalf("UAV RT taskset must fit one core: %v", err)
	}
	if err := rts.ValidateAll(rt, uav.SecurityTaskSet()); err != nil {
		t.Fatal(err)
	}
}

func TestRTTasksTotalUtilHelper(t *testing.T) {
	if got := rts.TotalRTUtilization(uav.RTTasks()); got <= 0.5 || got >= 1 {
		t.Fatalf("UAV RT utilization = %v, want in (0.5, 1) per the case-study design", got)
	}
}

func TestRunAblation(t *testing.T) {
	cells, err := RunAblation(AblationConfig{M: 2, UtilFrac: 0.7, TasksetsPerCell: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 { // 3 policies x 4 heuristics
		t.Fatalf("cells = %d, want 12", len(cells))
	}
	for _, c := range cells {
		if c.Generated == 0 {
			t.Fatalf("cell %v/%v generated nothing", c.Scheme, c.Heuristic)
		}
		if c.AcceptanceRatio() < 0 || c.AcceptanceRatio() > 1 {
			t.Fatalf("acceptance out of range: %+v", c)
		}
		if c.Accepted > 0 && (c.MeanTightness <= 0 || c.MeanTightness > 1+1e-9) {
			t.Fatalf("tightness out of range: %+v", c)
		}
		if c.NonPreemptive {
			t.Fatalf("non-preemptive cells not requested: %+v", c)
		}
	}
}

func TestRunAblationNonPreemptive(t *testing.T) {
	cells, err := RunAblation(AblationConfig{M: 2, UtilFrac: 0.5, TasksetsPerCell: 5, Seed: 3, NonPreemptiveToo: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 24 { // both modes
		t.Fatalf("cells = %d, want 24", len(cells))
	}
	var sawNP bool
	for _, c := range cells {
		if c.NonPreemptive {
			sawNP = true
		}
	}
	if !sawNP {
		t.Fatal("non-preemptive cells missing")
	}
}

func TestFig1WorstCaseReported(t *testing.T) {
	r, err := RunFig1(Fig1Config{Cores: []int{2}, Horizon: 120_000, Attacks: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	hyd, sc := r.Rows[0].Schemes[0], r.Rows[0].Schemes[1]
	if hyd.WorstCase <= 0 || sc.WorstCase <= 0 {
		t.Fatalf("worst case missing: %v / %v", hyd.WorstCase, sc.WorstCase)
	}
	// Worst case dominates the sampled mean and the sampled maximum.
	if hyd.WorstCase < hyd.ECDF.Max() {
		t.Fatalf("analytic worst case %v below sampled max %v", hyd.WorstCase, hyd.ECDF.Max())
	}
}
