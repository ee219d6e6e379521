package rts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRTTaskValidate(t *testing.T) {
	good := NewRTTask("a", 1, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	cases := []RTTask{
		{Name: "zeroC", C: 0, T: 10, D: 10},
		{Name: "negC", C: -1, T: 10, D: 10},
		{Name: "zeroT", C: 1, T: 0, D: 10},
		{Name: "zeroD", C: 1, T: 10, D: 0},
		{Name: "CgtD", C: 11, T: 20, D: 10},
		{Name: "DgtT", C: 1, T: 10, D: 20},
		{Name: "nanC", C: math.NaN(), T: 10, D: 10},
		{Name: "infT", C: 1, T: math.Inf(1), D: 10},
	}
	for _, tc := range cases {
		if err := tc.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.Name)
		}
	}
}

func TestSecurityTaskValidate(t *testing.T) {
	good := SecurityTask{Name: "s", C: 10, TDes: 100, TMax: 1000}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid security task rejected: %v", err)
	}
	cases := []SecurityTask{
		{Name: "zeroC", C: 0, TDes: 100, TMax: 1000},
		{Name: "TdesGtTmax", C: 1, TDes: 2000, TMax: 1000},
		{Name: "CgtTdes", C: 200, TDes: 100, TMax: 1000},
		{Name: "nan", C: math.NaN(), TDes: 100, TMax: 1000},
	}
	for _, tc := range cases {
		if err := tc.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.Name)
		}
	}
}

func TestTightnessAndWeights(t *testing.T) {
	s := SecurityTask{Name: "s", C: 10, TDes: 100, TMax: 1000}
	if got := s.Tightness(100); got != 1 {
		t.Fatalf("Tightness(TDes) = %v, want 1", got)
	}
	if got := s.Tightness(200); got != 0.5 {
		t.Fatalf("Tightness(2*TDes) = %v, want 0.5", got)
	}
	if got := s.Tightness(0); got != 0 {
		t.Fatalf("Tightness(0) = %v, want 0", got)
	}
	if got := s.EffectiveWeight(); got != 1 {
		t.Fatalf("default weight = %v, want 1", got)
	}
	s.Weight = 3
	if got := s.EffectiveWeight(); got != 3 {
		t.Fatalf("weight = %v, want 3", got)
	}
	if got := s.DesiredUtilization(); got != 0.1 {
		t.Fatalf("DesiredUtilization = %v", got)
	}
}

func TestSortRateMonotonic(t *testing.T) {
	tasks := []RTTask{
		NewRTTask("slow", 1, 100),
		NewRTTask("fast", 1, 10),
		NewRTTask("mid", 1, 50),
		NewRTTask("fast2", 1, 10),
	}
	SortRateMonotonic(tasks)
	want := []string{"fast", "fast2", "mid", "slow"}
	for i, w := range want {
		if tasks[i].Name != w {
			t.Fatalf("position %d = %s, want %s", i, tasks[i].Name, w)
		}
	}
}

func TestSortSecurityPriority(t *testing.T) {
	tasks := []SecurityTask{
		{Name: "loose", C: 1, TDes: 10, TMax: 1000},
		{Name: "tight", C: 1, TDes: 10, TMax: 100},
		{Name: "mid", C: 1, TDes: 10, TMax: 500},
	}
	SortSecurityPriority(tasks)
	want := []string{"tight", "mid", "loose"}
	for i, w := range want {
		if tasks[i].Name != w {
			t.Fatalf("position %d = %s, want %s", i, tasks[i].Name, w)
		}
	}
}

func TestUtilizationSums(t *testing.T) {
	rt := []RTTask{NewRTTask("a", 1, 10), NewRTTask("b", 2, 10)}
	if got := TotalRTUtilization(rt); !near(got, 0.3, 1e-12) {
		t.Fatalf("TotalRTUtilization = %v", got)
	}
	sec := []SecurityTask{{Name: "s", C: 5, TDes: 50, TMax: 500}}
	if got := TotalSecurityDesiredUtilization(sec); !near(got, 0.1, 1e-12) {
		t.Fatalf("TotalSecurityDesiredUtilization = %v", got)
	}
}

func TestValidateAll(t *testing.T) {
	rt := []RTTask{NewRTTask("a", 1, 10)}
	sec := []SecurityTask{{Name: "s", C: 5, TDes: 50, TMax: 500}}
	if err := ValidateAll(rt, sec); err != nil {
		t.Fatalf("ValidateAll: %v", err)
	}
	if err := ValidateAll([]RTTask{{Name: "bad", C: -1, T: 1, D: 1}}, nil); err == nil {
		t.Fatal("expected RT validation error")
	}
	if err := ValidateAll(nil, []SecurityTask{{Name: "bad", C: -1, TDes: 1, TMax: 1}}); err == nil {
		t.Fatal("expected security validation error")
	}
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(b)) }

func TestResponseTimeTextbook(t *testing.T) {
	// Classic example: tasks (C,T): (1,4), (2,6), (3,12). R3 = 1+2+... :
	// R1=1, R2=2+1*ceil? Let's compute: R2 = 2 + ceil(R2/4)*1 -> R2=3.
	// R3 = 3 + ceil(R/4)*1 + ceil(R/6)*2: R=3+1+2=6 -> 3+2+2=7... iterate:
	// R=6: 3+ceil(6/4)=2*1+ceil(6/6)=1*2 => 3+2+2=7; R=7: 3+2+4=9;
	// R=9: 3+3+4=10; R=10: 3+3+4=10 fixpoint.
	hp := []RTTask{NewRTTask("t1", 1, 4), NewRTTask("t2", 2, 6)}
	r, ok := ResponseTime(3, 12, hp)
	if !ok || r != 10 {
		t.Fatalf("R3 = %v ok=%v, want 10 true", r, ok)
	}
	r1, ok1 := ResponseTime(1, 4, nil)
	if !ok1 || r1 != 1 {
		t.Fatalf("R1 = %v ok=%v", r1, ok1)
	}
}

func TestResponseTimeUnschedulable(t *testing.T) {
	hp := []RTTask{NewRTTask("hog", 5, 10)}
	if _, ok := ResponseTime(6, 10, hp); ok {
		t.Fatal("should be unschedulable: 6+5 > 10")
	}
}

func TestCoreSchedulable(t *testing.T) {
	ok := []RTTask{NewRTTask("a", 1, 4), NewRTTask("b", 2, 6), NewRTTask("c", 3, 12)}
	if !CoreSchedulable(ok) {
		t.Fatal("textbook set should be schedulable")
	}
	bad := []RTTask{NewRTTask("a", 3, 4), NewRTTask("b", 3, 6)}
	if CoreSchedulable(bad) {
		t.Fatal("overloaded set should be unschedulable")
	}
	if !CoreSchedulable(nil) {
		t.Fatal("empty core is schedulable")
	}
}

func TestLiuLaylandBound(t *testing.T) {
	if got := LiuLaylandBound(1); !near(got, 1, 1e-12) {
		t.Fatalf("LL(1) = %v", got)
	}
	if got := LiuLaylandBound(2); !near(got, 2*(math.Sqrt2-1), 1e-12) {
		t.Fatalf("LL(2) = %v", got)
	}
	if got := LiuLaylandBound(0); got != 0 {
		t.Fatalf("LL(0) = %v", got)
	}
	// Monotone decreasing toward ln 2.
	prev := LiuLaylandBound(1)
	for n := 2; n < 50; n++ {
		cur := LiuLaylandBound(n)
		if cur >= prev {
			t.Fatalf("LL not decreasing at n=%d", n)
		}
		prev = cur
	}
	if prev < math.Ln2 {
		t.Fatalf("LL(49)=%v below ln2", prev)
	}
}

// Property: utilization below the Liu-Layland bound implies RTA passes.
func TestLLImpliesRTAProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		bound := LiuLaylandBound(n)
		tasks := make([]RTTask, n)
		// Generate with total utilization just under the bound.
		share := bound * 0.95 / float64(n)
		for i := range tasks {
			period := 10 + 990*r.Float64()
			tasks[i] = NewRTTask("t", share*period, period)
		}
		return CoreSchedulable(tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreLoad(t *testing.T) {
	var l CoreLoad
	l.AddRT(NewRTTask("a", 2, 10)) // C=2 U=0.2
	l.AddPeriodic(3, 30)           // C=3 U=0.1
	if !near(l.SumC, 5, 1e-12) || !near(l.SumU, 0.3, 1e-12) {
		t.Fatalf("load = %+v", l)
	}
	// I(ts) = 5 + 0.3*ts.
	if got := l.LinearInterference(10); !near(got, 8, 1e-12) {
		t.Fatalf("LinearInterference = %v", got)
	}
	// Min feasible period for c=2: (2+5)/(1-0.3) = 10.
	if got := l.MinFeasiblePeriod(2); !near(got, 10, 1e-12) {
		t.Fatalf("MinFeasiblePeriod = %v", got)
	}
}

func TestMinFeasiblePeriodSaturated(t *testing.T) {
	l := CoreLoad{SumC: 1, SumU: 1.0}
	if got := l.MinFeasiblePeriod(1); !math.IsInf(got, 1) {
		t.Fatalf("saturated core should give +Inf, got %v", got)
	}
	l.SumU = 1.5
	if got := l.MinFeasiblePeriod(1); !math.IsInf(got, 1) {
		t.Fatalf("overloaded core should give +Inf, got %v", got)
	}
}

// Property: at the minimum feasible period the constraint is tight:
// c + I(ts) == ts (within float tolerance), and any smaller period violates.
func TestMinFeasiblePeriodTightProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := CoreLoad{SumC: 5 * r.Float64(), SumU: 0.9 * r.Float64()}
		c := 0.1 + 2*r.Float64()
		ts := l.MinFeasiblePeriod(c)
		lhs := c + l.LinearInterference(ts)
		if math.Abs(lhs-ts) > 1e-9*(1+ts) {
			return false
		}
		smaller := ts * 0.99
		return c+l.LinearInterference(smaller) > smaller
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDBF(t *testing.T) {
	task := NewRTTask("a", 2, 10) // implicit deadline 10
	cases := []struct {
		t    Time
		want Time
	}{
		{0, 0}, {5, 0}, {9.99, 0}, {10, 2}, {19.99, 2}, {20, 4}, {100, 20},
	}
	for _, tc := range cases {
		if got := DBF(task, tc.t); got != tc.want {
			t.Errorf("DBF(t=%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	constrained := RTTask{Name: "c", C: 1, T: 10, D: 5}
	if got := DBF(constrained, 5); got != 1 {
		t.Errorf("constrained DBF(5) = %v, want 1", got)
	}
	if got := DBF(constrained, 4.9); got != 0 {
		t.Errorf("constrained DBF(4.9) = %v, want 0", got)
	}
}

func TestNecessaryCondition(t *testing.T) {
	light := []RTTask{NewRTTask("a", 1, 10), NewRTTask("b", 1, 10)}
	if !NecessaryConditionHolds(light, 1) {
		t.Fatal("U=0.2 on 1 core must pass")
	}
	heavy := []RTTask{NewRTTask("a", 9, 10), NewRTTask("b", 9, 10)}
	if NecessaryConditionHolds(heavy, 1) {
		t.Fatal("U=1.8 on 1 core must fail")
	}
	if !NecessaryConditionHolds(heavy, 2) {
		t.Fatal("U=1.8 on 2 cores must pass (implicit deadlines)")
	}
	if NecessaryConditionHolds(light, 0) {
		t.Fatal("no cores with tasks must fail")
	}
	if !NecessaryConditionHolds(nil, 0) {
		t.Fatal("no cores, no tasks is trivially fine")
	}
}

func TestNecessaryConditionConstrained(t *testing.T) {
	// Two tasks with tiny deadlines: each needs 1 unit by t=1, so demand at
	// t=1 is 2 > M*1 for M=1 — fails even though utilization is low.
	tasks := []RTTask{
		{Name: "a", C: 1, T: 100, D: 1},
		{Name: "b", C: 1, T: 100, D: 1},
	}
	if NecessaryConditionHolds(tasks, 1) {
		t.Fatal("constrained-deadline overload must fail on 1 core")
	}
	if !NecessaryConditionHolds(tasks, 2) {
		t.Fatal("2 cores fit the two unit demands")
	}
}

// Property: utilization over M always violates; utilization under M with
// implicit deadlines always holds.
func TestNecessaryConditionUtilizationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(4)
		n := 1 + r.Intn(10)
		target := float64(m) * (0.5 + r.Float64()) // in (0.5M, 1.5M)
		tasks := make([]RTTask, n)
		share := target / float64(n)
		for i := range tasks {
			period := 10 + 990*r.Float64()
			c := share * period
			tasks[i] = NewRTTask("t", c, period)
		}
		got := NecessaryConditionHolds(tasks, m)
		return got == (target <= float64(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
