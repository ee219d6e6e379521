package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/taskgen"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(b)) }

// twoCoreInput builds a small deterministic platform: 2 cores, one RT task
// per core with utilization u0 and u1 (period 100), plus the given security
// tasks.
func twoCoreInput(t *testing.T, u0, u1 float64, sec []rts.SecurityTask) *Input {
	t.Helper()
	rt := []rts.RTTask{
		rts.NewRTTask("rt0", u0*100, 100),
		rts.NewRTTask("rt1", u1*100, 100),
	}
	in, err := NewInput(2, rt, []int{0, 1}, sec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInputValidate(t *testing.T) {
	rt := []rts.RTTask{rts.NewRTTask("a", 1, 10)}
	if _, err := NewInput(0, rt, []int{0}, nil); err == nil {
		t.Fatal("M=0 must error")
	}
	if _, err := NewInput(2, rt, []int{}, nil); err == nil {
		t.Fatal("partition length mismatch must error")
	}
	if _, err := NewInput(2, rt, []int{5}, nil); err == nil {
		t.Fatal("out-of-range core must error")
	}
	bad := []rts.SecurityTask{{Name: "s", C: -1, TDes: 1, TMax: 2}}
	if _, err := NewInput(2, rt, []int{0}, bad); err == nil {
		t.Fatal("invalid security task must error")
	}
	if _, err := NewInput(2, rt, []int{0}, nil); err != nil {
		t.Fatal("valid input rejected")
	}
}

func TestRTLoads(t *testing.T) {
	in := twoCoreInput(t, 0.2, 0.4, nil)
	loads := in.RTLoads()
	if !near(loads[0].SumU, 0.2, 1e-12) || !near(loads[1].SumU, 0.4, 1e-12) {
		t.Fatalf("loads = %+v", loads)
	}
	if !near(loads[0].SumC, 20, 1e-12) || !near(loads[1].SumC, 40, 1e-12) {
		t.Fatalf("loads C = %+v", loads)
	}
}

func TestSecOrder(t *testing.T) {
	sec := []rts.SecurityTask{
		{Name: "loose", C: 1, TDes: 100, TMax: 3000},
		{Name: "tight", C: 1, TDes: 100, TMax: 1000},
		{Name: "mid", C: 1, TDes: 100, TMax: 2000},
	}
	in := twoCoreInput(t, 0.1, 0.1, sec)
	order := in.secOrder()
	if in.Sec[order[0]].Name != "tight" || in.Sec[order[1]].Name != "mid" || in.Sec[order[2]].Name != "loose" {
		t.Fatalf("order = %v", order)
	}
	// NewOrderedInput analyzes in the listed order instead. Under TMax order
	// "a" preempts "b" and "b" fails Eq. 6 (1 + 11*95 > 1000); listed below
	// "b", "a" passes it (95 + 1.1*1 <= 100).
	listed := []rts.SecurityTask{{Name: "b", C: 1, TDes: 1000, TMax: 2000}, {Name: "a", C: 95, TDes: 100, TMax: 100}}
	r := &Result{Schedulable: true, Assignment: []int{0, 0}, Periods: []rts.Time{1000, 100}}
	byTMax, err := NewInput(1, nil, nil, listed)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := NewOrderedInput(1, nil, nil, listed)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(byTMax, r) == nil || Verify(ordered, r) != nil || VerifyExact(ordered, r) != nil {
		t.Fatalf("TMax order: %v; listed order: %v, exact %v", Verify(byTMax, r), Verify(ordered, r), VerifyExact(ordered, r))
	}
}

func TestPeriodAdaptationClosedForm(t *testing.T) {
	s := rts.SecurityTask{Name: "s", C: 10, TDes: 100, TMax: 1000}
	// Empty core: Ts = TDes.
	ts, ok := PeriodAdaptation(s, rts.CoreLoad{})
	if !ok || ts != 100 {
		t.Fatalf("empty core: ts=%v ok=%v", ts, ok)
	}
	// Loaded core: (10+50)/(1-0.5) = 120 > TDes.
	ts, ok = PeriodAdaptation(s, rts.CoreLoad{SumC: 50, SumU: 0.5})
	if !ok || !near(ts, 120, 1e-12) {
		t.Fatalf("loaded core: ts=%v ok=%v", ts, ok)
	}
	// Saturated core: infeasible.
	if _, ok := PeriodAdaptation(s, rts.CoreLoad{SumC: 1, SumU: 1}); ok {
		t.Fatal("saturated core must be infeasible")
	}
	// Beyond TMax: infeasible. (10+990)/(1-0) = 1000 fits exactly; 991 doesn't.
	ts, ok = PeriodAdaptation(s, rts.CoreLoad{SumC: 990})
	if !ok || !near(ts, 1000, 1e-12) {
		t.Fatalf("boundary: ts=%v ok=%v", ts, ok)
	}
	if _, ok := PeriodAdaptation(s, rts.CoreLoad{SumC: 991}); ok {
		t.Fatal("just over TMax must be infeasible")
	}
}

// The GP route and the closed form must agree — this is the paper's
// Appendix reformulation cross-check.
func TestPeriodAdaptationGPMatchesClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := rts.SecurityTask{
			Name: "s",
			C:    1 + 50*r.Float64(),
			TDes: 100 + 900*r.Float64(),
		}
		s.TMax = s.TDes * (1 + 9*r.Float64())
		load := rts.CoreLoad{SumC: 100 * r.Float64(), SumU: 0.95 * r.Float64()}
		cf, okCF := PeriodAdaptation(s, load)
		gpT, okGP := PeriodAdaptationGP(s, load)
		if okCF != okGP {
			return false
		}
		if !okCF {
			return true
		}
		return near(gpT, cf, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHydraEmptySecuritySet(t *testing.T) {
	in := twoCoreInput(t, 0.5, 0.5, nil)
	r := Hydra(in, HydraOptions{})
	if !r.Schedulable || r.Cumulative != 0 {
		t.Fatalf("empty security set: %+v", r)
	}
}

func TestHydraPicksEmptierCoreForTightness(t *testing.T) {
	sec := []rts.SecurityTask{{Name: "s", C: 10, TDes: 50, TMax: 5000}}
	in := twoCoreInput(t, 0.8, 0.1, sec)
	r := Hydra(in, HydraOptions{})
	if !r.Schedulable {
		t.Fatalf("unschedulable: %s", r.Reason)
	}
	if r.Assignment[0] != 1 {
		t.Fatalf("should choose core 1 (lighter), got %d", r.Assignment[0])
	}
	// Core 1 load: SumC=10, SumU=0.1 -> min period (10+10)/0.9 = 22.2 < TDes.
	if !near(r.Periods[0], 50, 1e-9) {
		t.Fatalf("period = %v, want TDes=50", r.Periods[0])
	}
	if !near(r.Tightness[0], 1, 1e-9) {
		t.Fatalf("tightness = %v, want 1", r.Tightness[0])
	}
	if err := Verify(in, r); err != nil {
		t.Fatal(err)
	}
}

func TestHydraAdaptsPeriodUnderLoad(t *testing.T) {
	// Both cores heavily loaded: period must stretch above TDes.
	sec := []rts.SecurityTask{{Name: "s", C: 10, TDes: 50, TMax: 5000}}
	in := twoCoreInput(t, 0.8, 0.8, sec)
	r := Hydra(in, HydraOptions{})
	if !r.Schedulable {
		t.Fatalf("unschedulable: %s", r.Reason)
	}
	// min period = (10+80)/(0.2) = 450.
	if !near(r.Periods[0], 450, 1e-9) {
		t.Fatalf("period = %v, want 450", r.Periods[0])
	}
	if !near(r.Tightness[0], 50.0/450, 1e-9) {
		t.Fatalf("tightness = %v", r.Tightness[0])
	}
	if err := Verify(in, r); err != nil {
		t.Fatal(err)
	}
}

func TestHydraUnschedulable(t *testing.T) {
	// TMax too small for the achievable period on either core.
	sec := []rts.SecurityTask{{Name: "s", C: 10, TDes: 50, TMax: 100}}
	in := twoCoreInput(t, 0.9, 0.9, sec)
	r := Hydra(in, HydraOptions{})
	if r.Schedulable {
		t.Fatal("expected unschedulable")
	}
	if !strings.Contains(r.Reason, "s") {
		t.Fatalf("reason should name the task: %q", r.Reason)
	}
}

func TestHydraPriorityOrderCommits(t *testing.T) {
	// Two security tasks; the tighter-TMax one must be placed first and thus
	// get the better (lower) period on the shared best core.
	sec := []rts.SecurityTask{
		{Name: "low", C: 20, TDes: 100, TMax: 10000},
		{Name: "high", C: 20, TDes: 100, TMax: 1000},
	}
	in := twoCoreInput(t, 0.7, 0.7, sec)
	r := Hydra(in, HydraOptions{})
	if !r.Schedulable {
		t.Fatalf("unschedulable: %s", r.Reason)
	}
	if err := Verify(in, r); err != nil {
		t.Fatal(err)
	}
	// high priority processed first: its period reflects only RT load.
	// min period high = (20+70)/(1-0.7) = 300.
	if !near(r.Periods[1], 300, 1e-9) {
		t.Fatalf("high-priority period = %v, want 300", r.Periods[1])
	}
	// low priority lands on the other core (same load): also 300 here.
	if r.Assignment[0] == r.Assignment[1] {
		t.Fatalf("best-tightness should spread equal tasks, got same core %d", r.Assignment[0])
	}
}

func TestHydraGPVariantAgrees(t *testing.T) {
	sec := []rts.SecurityTask{
		{Name: "a", C: 10, TDes: 100, TMax: 2000},
		{Name: "b", C: 15, TDes: 150, TMax: 3000},
		{Name: "c", C: 20, TDes: 200, TMax: 4000},
	}
	in := twoCoreInput(t, 0.6, 0.5, sec)
	cf := Hydra(in, HydraOptions{})
	gpR := Hydra(in, HydraOptions{UseGP: true})
	if cf.Schedulable != gpR.Schedulable {
		t.Fatalf("feasibility mismatch: cf=%v gp=%v", cf.Schedulable, gpR.Schedulable)
	}
	for i := range cf.Periods {
		if !near(cf.Periods[i], gpR.Periods[i], 1e-4) {
			t.Fatalf("period %d: cf=%v gp=%v", i, cf.Periods[i], gpR.Periods[i])
		}
		if cf.Assignment[i] != gpR.Assignment[i] {
			t.Fatalf("assignment %d: cf=%v gp=%v", i, cf.Assignment[i], gpR.Assignment[i])
		}
	}
}

func TestHydraPolicies(t *testing.T) {
	sec := []rts.SecurityTask{{Name: "s", C: 10, TDes: 50, TMax: 5000}}
	in := twoCoreInput(t, 0.8, 0.1, sec)
	ff := Hydra(in, HydraOptions{Policy: FirstFeasible})
	if !ff.Schedulable || ff.Assignment[0] != 0 {
		t.Fatalf("first-feasible should pick core 0: %+v", ff)
	}
	ll := Hydra(in, HydraOptions{Policy: LeastLoaded})
	if !ll.Schedulable || ll.Assignment[0] != 1 {
		t.Fatalf("least-loaded should pick core 1: %+v", ll)
	}
	bad := Hydra(in, HydraOptions{Policy: Policy(77)})
	if bad.Schedulable {
		t.Fatal("unknown policy must fail")
	}
	for p, want := range map[Policy]string{
		BestTightness: "best-tightness", FirstFeasible: "first-feasible",
		LeastLoaded: "least-loaded", Policy(9): "policy(9)",
	} {
		if p.String() != want {
			t.Errorf("Policy(%d) = %q want %q", int(p), p.String(), want)
		}
	}
}

func TestSingleCoreBasic(t *testing.T) {
	rt := []rts.RTTask{
		rts.NewRTTask("rt0", 30, 100),
		rts.NewRTTask("rt1", 30, 100),
	}
	sec := []rts.SecurityTask{
		{Name: "s0", C: 10, TDes: 100, TMax: 1000},
		{Name: "s1", C: 10, TDes: 100, TMax: 2000},
	}
	r := SingleCore(2, rt, sec, partition.BestFit)
	if !r.Schedulable {
		t.Fatalf("unschedulable: %s", r.Reason)
	}
	for i := range sec {
		if r.Assignment[i] != 1 {
			t.Fatalf("security task %d not on dedicated core: %d", i, r.Assignment[i])
		}
	}
	// Priority order: s0 (TMax 1000) first: period = TDes = 100.
	// s1 next: load SumC=10 SumU=0.1 -> min = (10+10)/0.9 = 22.2 -> TDes=100.
	if !near(r.Periods[0], 100, 1e-9) || !near(r.Periods[1], 100, 1e-9) {
		t.Fatalf("periods = %v", r.Periods)
	}
}

func TestSingleCoreNeedsTwoCores(t *testing.T) {
	r := SingleCore(1, nil, nil, partition.BestFit)
	if r.Schedulable {
		t.Fatal("M=1 must be unschedulable for SingleCore")
	}
}

func TestSingleCoreRTOverflow(t *testing.T) {
	// RT tasks need 2 cores; with M=2 SingleCore leaves only 1 for them.
	rt := []rts.RTTask{
		rts.NewRTTask("rt0", 70, 100),
		rts.NewRTTask("rt1", 70, 100),
	}
	r := SingleCore(2, rt, nil, partition.BestFit)
	if r.Schedulable {
		t.Fatal("RT overflow must be unschedulable")
	}
	if !strings.Contains(r.Reason, "fit") {
		t.Fatalf("reason: %q", r.Reason)
	}
}

func TestSingleCoreSecOverflow(t *testing.T) {
	// Security tasks saturate the dedicated core.
	sec := []rts.SecurityTask{
		{Name: "s0", C: 90, TDes: 100, TMax: 110},
		{Name: "s1", C: 90, TDes: 100, TMax: 110},
	}
	rt := []rts.RTTask{rts.NewRTTask("rt0", 10, 100)}
	r := SingleCore(2, rt, sec, partition.BestFit)
	if r.Schedulable {
		t.Fatal("security overload must be unschedulable")
	}
}

func TestSingleCoreInput(t *testing.T) {
	rt := []rts.RTTask{rts.NewRTTask("rt0", 30, 100)}
	sec := []rts.SecurityTask{{Name: "s", C: 10, TDes: 100, TMax: 1000}}
	in, err := NewInput(2, rt, []int{0}, sec)
	if err != nil {
		t.Fatal(err)
	}
	r := SingleCoreInput(in)
	if !r.Schedulable || r.Assignment[0] != 1 {
		t.Fatalf("result: %+v (%s)", r, r.Reason)
	}
	// RT task on the dedicated core must be rejected.
	in2, _ := NewInput(2, rt, []int{1}, sec)
	if r2 := SingleCoreInput(in2); r2.Schedulable {
		t.Fatal("RT on security core must fail")
	}
	in3, _ := NewInput(1, rt, []int{0}, sec)
	if r3 := SingleCoreInput(in3); r3.Schedulable {
		t.Fatal("M=1 must fail")
	}
}

func TestOptimalSmall(t *testing.T) {
	sec := []rts.SecurityTask{
		{Name: "a", C: 10, TDes: 100, TMax: 2000},
		{Name: "b", C: 15, TDes: 150, TMax: 3000},
	}
	in := twoCoreInput(t, 0.5, 0.5, sec)
	r := Optimal(in, OptimalOptions{})
	if !r.Schedulable {
		t.Fatalf("unschedulable: %s", r.Reason)
	}
	if err := Verify(in, r); err != nil {
		t.Fatal(err)
	}
	// Equal cores: optimal spreads the two tasks, each at min feasible period.
	if r.Assignment[0] == r.Assignment[1] {
		t.Fatalf("optimal should spread tasks, got %v", r.Assignment)
	}
}

func TestOptimalAtLeastAsGoodAsHydra(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		w, err := taskgen.Generate(taskgen.Params{
			M: 2, NR: 4, NS: 2 + rng.Intn(4),
			TotalUtil:   0.4 + 1.2*rng.Float64(),
			RTPeriodMin: 10, RTPeriodMax: 1000,
			SecTDesMin: 1000, SecTDesMax: 3000,
			TMaxFactor: 10, SecUtilFraction: 0.3, MinTaskUtil: 0.001,
		}, rng)
		if err != nil {
			continue
		}
		part, err := partition.PartitionRT(w.RT, 2, partition.BestFit)
		if err != nil {
			continue
		}
		in, err := NewInput(2, w.RT, part.CoreOf, w.Sec)
		if err != nil {
			t.Fatal(err)
		}
		h := Hydra(in, HydraOptions{})
		o := Optimal(in, OptimalOptions{RefineJointGP: true})
		if h.Schedulable && !o.Schedulable {
			t.Fatalf("trial %d: HYDRA schedulable but OPT not", trial)
		}
		if h.Schedulable && o.Schedulable {
			if o.Cumulative < h.Cumulative*(1-1e-6) {
				t.Fatalf("trial %d: OPT %v < HYDRA %v", trial, o.Cumulative, h.Cumulative)
			}
			if err := Verify(in, o); err != nil {
				t.Fatalf("trial %d: OPT invalid: %v", trial, err)
			}
			if err := Verify(in, h); err != nil {
				t.Fatalf("trial %d: HYDRA invalid: %v", trial, err)
			}
		}
	}
}

func TestOptimalAssignmentCap(t *testing.T) {
	sec := make([]rts.SecurityTask, 8)
	for i := range sec {
		sec[i] = rts.SecurityTask{Name: "s", C: 1, TDes: 100, TMax: 1000}
	}
	in := twoCoreInput(t, 0.1, 0.1, sec)
	r := Optimal(in, OptimalOptions{MaxAssignments: 10})
	if r.Schedulable {
		t.Fatal("cap exceeded must refuse, not truncate")
	}
	if !strings.Contains(r.Reason, "cap") {
		t.Fatalf("reason: %q", r.Reason)
	}
}

func TestOptimalEmpty(t *testing.T) {
	in := twoCoreInput(t, 0.3, 0.3, nil)
	r := Optimal(in, OptimalOptions{})
	if !r.Schedulable || r.Cumulative != 0 {
		t.Fatalf("empty: %+v", r)
	}
}

func TestOptimalInfeasible(t *testing.T) {
	sec := []rts.SecurityTask{{Name: "s", C: 10, TDes: 50, TMax: 100}}
	in := twoCoreInput(t, 0.9, 0.9, sec)
	r := Optimal(in, OptimalOptions{})
	if r.Schedulable {
		t.Fatal("expected infeasible")
	}
}

func TestTightnessGap(t *testing.T) {
	opt := &Result{Schedulable: true, Cumulative: 10}
	hyd := &Result{Schedulable: true, Cumulative: 8}
	gap, ok := TightnessGap(opt, hyd)
	if !ok || !near(gap, 20, 1e-12) {
		t.Fatalf("gap = %v ok=%v", gap, ok)
	}
	// HYDRA better than OPT (possible with greedy-period OPT): clamp to 0.
	gap, ok = TightnessGap(&Result{Schedulable: true, Cumulative: 8}, &Result{Schedulable: true, Cumulative: 9})
	if !ok || gap != 0 {
		t.Fatalf("clamped gap = %v ok=%v", gap, ok)
	}
	if _, ok := TightnessGap(nil, hyd); ok {
		t.Fatal("nil opt must be not-ok")
	}
	if _, ok := TightnessGap(&Result{Schedulable: false}, hyd); ok {
		t.Fatal("unschedulable opt must be not-ok")
	}
	if _, ok := TightnessGap(&Result{Schedulable: true, Cumulative: 0}, hyd); ok {
		t.Fatal("zero cumulative must be not-ok")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	sec := []rts.SecurityTask{{Name: "s", C: 10, TDes: 50, TMax: 5000}}
	in := twoCoreInput(t, 0.8, 0.1, sec)
	r := Hydra(in, HydraOptions{})
	if err := Verify(in, r); err != nil {
		t.Fatal(err)
	}
	// Tamper: period below TDes.
	bad := *r
	bad.Periods = []rts.Time{10}
	if err := Verify(in, &bad); err == nil {
		t.Fatal("period below TDes must fail verification")
	}
	bad.Periods = []rts.Time{math.NaN()}
	if err := Verify(in, &bad); err == nil {
		t.Fatal("NaN period must fail verification")
	}
	// Tamper: move to the loaded core with an unschedulable period.
	bad2 := *r
	bad2.Assignment = []int{0}
	bad2.Periods = []rts.Time{50}
	if err := Verify(in, &bad2); err == nil {
		t.Fatal("Eq.6 violation must fail verification")
	}
	// Tamper: invalid core index.
	bad3 := *r
	bad3.Assignment = []int{7}
	if err := Verify(in, &bad3); err == nil {
		t.Fatal("invalid core must fail verification")
	}
	// Unschedulable result cannot be verified.
	if err := Verify(in, newInfeasible("x", "y")); err == nil {
		t.Fatal("unschedulable result must fail verification")
	}
	// Length mismatch.
	bad4 := *r
	bad4.Assignment = []int{}
	bad4.Periods = []rts.Time{}
	if err := Verify(in, &bad4); err == nil {
		t.Fatal("length mismatch must fail verification")
	}
	// Tamper: the result's own RT partition puts rt1 outside the platform.
	for _, c := range []int{2, -1} {
		bad5 := *r
		bad5.RTPartition = []int{0, c}
		want := fmt.Sprintf(`real-time task "rt1" on invalid core %d`, c)
		if err := Verify(in, &bad5); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("RT partition core %d: err = %v, want one containing %q", c, err, want)
		}
	}
}

// Property: on random workloads, every schedulable result from every scheme
// passes Verify, and whenever SingleCore is schedulable HYDRA is too (HYDRA
// dominates: it can always emulate the dedicated-core layout when the RT
// partition leaves a core free — here we check the weaker, always-true
// property that HYDRA results are valid and its cumulative tightness is
// finite and within bounds).
func TestSchemesSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		w, err := taskgen.Generate(taskgen.DefaultParams(m, float64(m)*(0.1+0.6*rng.Float64())), rng)
		if err != nil {
			return true
		}
		part, err := partition.PartitionRT(w.RT, m, partition.BestFit)
		if err != nil {
			return true
		}
		in, err := NewInput(m, w.RT, part.CoreOf, w.Sec)
		if err != nil {
			return false
		}
		r := Hydra(in, HydraOptions{})
		if !r.Schedulable {
			return true
		}
		if Verify(in, r) != nil {
			return false
		}
		// Tightness bounds: TDes/TMax <= eta <= 1.
		for i, s := range in.Sec {
			eta := r.Tightness[i]
			if eta < s.TDes/s.TMax-1e-9 || eta > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Regression for the LeastLoaded tie-break floor: bestScore starts at
// math.Inf(-1), not a finite sentinel like -1.0, because the least-loaded
// score 1 - SumU is only bounded below by the analysis that decides
// feasibility — with a finite floor, a feasible core scoring at or below it
// could never be selected even when it is the only feasible one. The paper's
// closed-form adaptation keeps feasible cores under SumU < 1, so this pins
// the nearest observable behavior: the sole feasible core is selected however
// small its score, and every policy agrees on sole-feasible instances.
func TestLeastLoadedSelectsSoleFeasibleCore(t *testing.T) {
	// Core 0 is nearly saturated by real-time work (U = 0.98): no adapted
	// period can absorb the security task there. Core 1 is heavily loaded
	// too (U = 0.9, score 1-SumU barely above zero after commitment) but
	// feasible.
	// TMax = 2000 rules core 0 out (its min feasible period is (2+98)/0.02 =
	// 5000) while core 1 stays feasible ((2+90)/0.1 = 920).
	sec := []rts.SecurityTask{
		{Name: "s1", C: 2, TDes: 100, TMax: 2000},
		{Name: "s2", C: 2, TDes: 120, TMax: 2000},
	}
	in := twoCoreInput(t, 0.98, 0.9, sec)
	for _, p := range []Policy{BestTightness, FirstFeasible, LeastLoaded} {
		r := Hydra(in, HydraOptions{Policy: p})
		if !r.Schedulable {
			t.Fatalf("policy %v: sole-feasible-core workload rejected: %s", p, r.Reason)
		}
		for i, c := range r.Assignment {
			if c != 1 {
				t.Fatalf("policy %v: task %d on core %d, want the sole feasible core 1", p, i, c)
			}
		}
	}
	ext := HydraExt(in, ExtOptions{HydraOptions: HydraOptions{Policy: LeastLoaded}})
	if !ext.Schedulable || ext.Assignment[0] != 1 || ext.Assignment[1] != 1 {
		t.Fatalf("hydra-ext least-loaded: %+v", ext)
	}
}
