package rts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// hyperbolicBoundHolds asks the AnalysisState's hyperbolic bound about a
// set on one core: every task but the last is seeded, and the last one is the
// arrival whose trial the bound must admit without a fixed point.
func hyperbolicBoundHolds(tasks []RTTask) bool {
	if len(tasks) == 0 {
		return true
	}
	st := NewAnalysisState(1)
	for _, t := range tasks[:len(tasks)-1] {
		st.SeedRT(0, t)
	}
	st.TryAddRT(0, tasks[len(tasks)-1])
	return st.met.BoundAdmits == 1
}

func TestHyperbolicBound(t *testing.T) {
	// Two tasks at U=0.41 each: product 1.41^2 = 1.9881 <= 2 -> schedulable.
	ok := []RTTask{NewRTTask("a", 41, 100), NewRTTask("b", 41, 100)}
	if !hyperbolicBoundHolds(ok) {
		t.Fatal("1.41^2 <= 2 must pass")
	}
	// Two tasks at U=0.45: 1.45^2 = 2.1025 > 2 -> bound fails (taskset may
	// still be schedulable, the bound is only sufficient).
	fail := []RTTask{NewRTTask("a", 45, 100), NewRTTask("b", 45, 100)}
	if hyperbolicBoundHolds(fail) {
		t.Fatal("1.45^2 > 2 must fail the bound")
	}
	if !hyperbolicBoundHolds(nil) {
		t.Fatal("empty set trivially passes")
	}
}

// The cap pair: the product (1.9995·1.00024 = 1.99998) passes the bound, but
// lo's fixed point needs about 12,000 iterations, past MaxRTAIterations, so
// exact RTA refuses lo and the bound must not admit it either.
func TestBoundRefusesCapPair(t *testing.T) {
	hp := NewRTTask("hp", 0.9995, 1)
	lo := NewRTTask("lo", 240, 1e6)
	st := NewAnalysisState(1)
	if !st.AddRT(0, hp) {
		t.Fatal("hp rejected")
	}
	cs := &st.cores[0]
	if p := roundUp(cs.prod * onePlusU(lo)); p > 2 {
		t.Fatalf("product %g > 2: the pair no longer tests the iteration guard", p)
	}
	before := st.met
	if st.TryAddRT(0, lo) {
		t.Fatal("TryAddRT admitted lo, whose fixed point exceeds MaxRTAIterations")
	}
	if CoreSchedulable([]RTTask{hp, lo}) {
		t.Fatal("CoreSchedulable admitted lo")
	}
	if st.met.BoundAdmits != before.BoundAdmits {
		t.Fatal("the bound admitted lo")
	}
	if over := st.met.IterBuckets[numIterBuckets-1] - before.IterBuckets[numIterBuckets-1]; over != 1 {
		t.Fatalf("%d analyses in the overflow bucket, want lo's 1", over)
	}
}

// {1, 2} and {1, 3} meet the bound with equality in the reals, 1.5·(4/3) = 2.
// Rounded up, the product passes 2, so the trial goes to exact RTA, which
// admits it (R = 2 <= 3).
func TestBoundAtTwoGoesToExactRTA(t *testing.T) {
	st := NewAnalysisState(1)
	if !st.AddRT(0, NewRTTask("a", 1, 2)) {
		t.Fatal("a rejected")
	}
	before := st.met
	if !st.TryAddRT(0, NewRTTask("b", 1, 3)) {
		t.Fatal("b rejected; exact RTA gives R = 2 <= 3")
	}
	if st.met.BoundAdmits != before.BoundAdmits {
		t.Fatal("the bound admitted a set at exactly 2")
	}
	if st.met.FixedPoints == before.FixedPoints {
		t.Fatal("b was admitted without exact RTA")
	}
	if r := st.cores[0].trial.rNew; r != 2 {
		t.Fatalf("b's response time %g, want 2", r)
	}
}

// A product that rounds to at most 2 but lies within the n²·2⁻⁵² margin of 2
// goes to exact RTA: the margin is what covers the float RTA's rounding.
func TestBoundKeepsRoundingMargin(t *testing.T) {
	st := NewAnalysisState(1)
	if !st.AddRT(0, NewRTTask("a", 1, 2)) {
		t.Fatal("a rejected")
	}
	// Walk the arrival's WCET down from U = 1/3 to the first value whose
	// rounded-up product is at most 2.
	b := NewRTTask("b", 1, 3)
	for roundUp(st.cores[0].prod*onePlusU(b)) > 2 {
		b.C = math.Nextafter(b.C, 0)
	}
	before := st.met
	if !st.TryAddRT(0, b) {
		t.Fatal("b rejected; exact RTA gives R = 2 <= 3")
	}
	if st.met.BoundAdmits != before.BoundAdmits {
		t.Fatalf("the bound admitted C = %v, whose product is within its rounding margin of 2", b.C)
	}
}

// Property: hyperbolic bound implies Liu-Layland-style schedulability via
// exact RTA (the bound is sufficient).
func TestHyperbolicImpliesRTAProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		tasks := make([]RTTask, n)
		for i := range tasks {
			period := 10 + 990*rng.Float64()
			u := 0.05 + 0.5*rng.Float64()
			tasks[i] = NewRTTask("t", u*period, period)
		}
		if !hyperbolicBoundHolds(tasks) {
			return true
		}
		return CoreSchedulable(tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: hyperbolic bound admits everything Liu-Layland admits.
func TestHyperbolicDominatesLLProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		tasks := make([]RTTask, n)
		var util float64
		for i := range tasks {
			period := 10 + 990*rng.Float64()
			u := 0.02 + 0.3*rng.Float64()
			tasks[i] = NewRTTask("t", u*period, period)
			util += u
		}
		if util > LiuLaylandBound(n) {
			return true // LL does not admit; nothing to check
		}
		return hyperbolicBoundHolds(tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestHyperperiod(t *testing.T) {
	tasks := []RTTask{
		NewRTTask("a", 1, 4),
		NewRTTask("b", 1, 6),
		NewRTTask("c", 1, 10),
	}
	h, ok := Hyperperiod(tasks, 1)
	if !ok || h != 60 {
		t.Fatalf("hyperperiod = %v ok=%v, want 60", h, ok)
	}
	// Sub-millisecond resolution.
	frac := []RTTask{NewRTTask("a", 0.1, 0.4), NewRTTask("b", 0.1, 0.6)}
	h, ok = Hyperperiod(frac, 0.1)
	if !ok || math.Abs(h-1.2) > 1e-9 {
		t.Fatalf("fractional hyperperiod = %v ok=%v, want 1.2", h, ok)
	}
	// Irrational-ish period at integer resolution: not representable.
	bad := []RTTask{NewRTTask("a", 1, 4.35)}
	if _, ok := Hyperperiod(bad, 1); ok {
		t.Fatal("non-integral period must be rejected at resolution 1")
	}
	if _, ok := Hyperperiod(nil, 1); ok {
		t.Fatal("empty set must be rejected")
	}
	if _, ok := Hyperperiod(tasks, 0); ok {
		t.Fatal("zero resolution must be rejected")
	}
	// Overflow: coprime huge periods.
	huge := []RTTask{NewRTTask("a", 1, 1e15), NewRTTask("b", 1, 1e15-1)}
	if _, ok := Hyperperiod(huge, 1); ok {
		t.Fatal("overflowing LCM must be rejected")
	}
}

// Property: the hyperperiod is a common multiple of every period.
func TestHyperperiodDividesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		tasks := make([]RTTask, n)
		for i := range tasks {
			period := Time(1 + rng.Intn(100))
			tasks[i] = NewRTTask("t", period/10, period)
		}
		h, ok := Hyperperiod(tasks, 1)
		if !ok {
			return false
		}
		for _, task := range tasks {
			q := h / task.T
			if math.Abs(q-math.Round(q)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBusyPeriod(t *testing.T) {
	// Single task: busy period = C.
	one := []RTTask{NewRTTask("a", 3, 10)}
	l, ok := BusyPeriod(one)
	if !ok || l != 3 {
		t.Fatalf("busy period = %v ok=%v, want 3", l, ok)
	}
	// Textbook: (1,4),(2,6),(3,12): L = 1+2+3 = 6 -> ceil(6/4)*1+ceil(6/6)*2+ceil(6/12)*3
	// = 2+2+3 = 7 -> ceil(7/4)=2 +2*ceil(7/6)=2... compute: 2*1+2*2... let's
	// just assert the fixed point property below; here check convergence.
	tasks := []RTTask{NewRTTask("a", 1, 4), NewRTTask("b", 2, 6), NewRTTask("c", 3, 12)}
	l, ok = BusyPeriod(tasks)
	if !ok {
		t.Fatal("busy period must converge")
	}
	var sum Time
	for _, task := range tasks {
		sum += math.Ceil(l/task.T) * task.C
	}
	if sum != l {
		t.Fatalf("fixed point violated: L=%v demand=%v", l, sum)
	}
	// Over-utilized: diverges.
	if _, ok := BusyPeriod([]RTTask{NewRTTask("a", 11, 10)}); ok {
		t.Fatal("over-utilized busy period must fail")
	}
	if l, ok := BusyPeriod(nil); !ok || l != 0 {
		t.Fatal("empty set busy period is 0")
	}
}

// Property: busy period >= max response time of the lowest-priority task.
func TestBusyPeriodBoundsResponseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		tasks := make([]RTTask, n)
		for i := range tasks {
			period := 10 + 190*rng.Float64()
			u := 0.05 + 0.15*rng.Float64()
			tasks[i] = NewRTTask("t", u*period, period)
		}
		SortRateMonotonic(tasks)
		l, ok := BusyPeriod(tasks)
		if !ok {
			return false
		}
		low := tasks[n-1]
		r, ok := ResponseTime(low.C, low.D, tasks[:n-1])
		if !ok {
			return true // unschedulable instance; busy period claim vacuous
		}
		return r <= l+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseTimeWithJitterBlocking(t *testing.T) {
	// No jitter, no blocking: must equal plain RTA.
	hp := []JitteredTask{{C: 1, T: 4}, {C: 2, T: 6}}
	r, ok := ResponseTimeWithJitterBlocking(3, 0, 12, hp)
	if !ok || r != 10 {
		t.Fatalf("R = %v ok=%v, want 10", r, ok)
	}
	// Blocking adds directly.
	r, ok = ResponseTimeWithJitterBlocking(3, 1, 20, hp)
	if !ok || r < 11 {
		t.Fatalf("blocking not applied: %v", r)
	}
	// Jitter inflates interference: J=4 on the first interferer pulls one
	// extra preemption in.
	rj, ok := ResponseTimeWithJitterBlocking(3, 0, 30, []JitteredTask{{C: 1, T: 4, J: 4}, {C: 2, T: 6}})
	if !ok || rj <= 10 {
		t.Fatalf("jitter not applied: %v", rj)
	}
	// Unschedulable.
	if _, ok := ResponseTimeWithJitterBlocking(6, 0, 10, []JitteredTask{{C: 5, T: 10}}); ok {
		t.Fatal("overload must fail")
	}
}
