package rts

import (
	"math"
	"testing"
)

// metricsTaskset commits a few tasks through the probe-then-commit pattern
// the heuristics use, returning the delta this produced in the package
// totals.
func metricsDelta(t *testing.T, fn func(st *AnalysisState)) AnalysisMetricsSnapshot {
	t.Helper()
	before := ReadAnalysisMetrics()
	st := NewAnalysisState(2)
	fn(st)
	st.FlushMetrics()
	after := ReadAnalysisMetrics()
	d := AnalysisMetricsSnapshot{
		FixedPoints: after.FixedPoints - before.FixedPoints,
		Iterations:  after.Iterations - before.Iterations,
		WarmStarts:  after.WarmStarts - before.WarmStarts,
		TrialReuses: after.TrialReuses - before.TrialReuses,
		BoundAdmits: after.BoundAdmits - before.BoundAdmits,
	}
	for i := range d.IterBuckets {
		d.IterBuckets[i] = after.IterBuckets[i] - before.IterBuckets[i]
	}
	return d
}

// The metrics tests give their tasks D < T, which the hyperbolic bound does
// not decide, so every trial runs exact RTA.
func TestAnalysisMetricsCountFixedPoints(t *testing.T) {
	d := metricsDelta(t, func(st *AnalysisState) {
		if !st.AddRT(0, RTTask{Name: "a", C: 1, T: 10, D: 9}) {
			t.Fatal("a rejected")
		}
		if !st.AddRT(0, RTTask{Name: "b", C: 2, T: 20, D: 19}) {
			t.Fatal("b rejected")
		}
	})
	// Task a: 1 fixed point. Task b: its own RTA plus none preempted below
	// it... b is lower priority, so only b's own analysis runs (a is not
	// re-analyzed: insertion at the end preempts nobody).
	if d.FixedPoints == 0 {
		t.Fatal("no fixed points recorded")
	}
	if d.Iterations < d.FixedPoints {
		t.Fatalf("iterations %d < fixed points %d", d.Iterations, d.FixedPoints)
	}
	var bucketSum uint64
	for _, b := range d.IterBuckets {
		bucketSum += b
	}
	if bucketSum != d.FixedPoints {
		t.Fatalf("bucket sum %d != fixed points %d", bucketSum, d.FixedPoints)
	}
}

func TestAnalysisMetricsTrialReuse(t *testing.T) {
	d := metricsDelta(t, func(st *AnalysisState) {
		task := RTTask{Name: "a", C: 1, T: 10, D: 10}
		if !st.TryAddRT(0, task) {
			t.Fatal("trial rejected")
		}
		if !st.AddRT(0, task) {
			t.Fatal("commit rejected")
		}
	})
	if d.TrialReuses != 1 {
		t.Fatalf("trial reuses = %d, want 1 (probe-then-commit must reuse)", d.TrialReuses)
	}
}

func TestAnalysisMetricsWarmStarts(t *testing.T) {
	d := metricsDelta(t, func(st *AnalysisState) {
		// Commit a low-priority task first, then a higher-priority one: the
		// re-analysis of the preempted task warm-starts from its memoized
		// response time, which interference has pushed above its WCET.
		if !st.AddRT(0, RTTask{Name: "low", C: 3, T: 100, D: 90}) {
			t.Fatal("low rejected")
		}
		if !st.AddRT(0, RTTask{Name: "mid", C: 2, T: 50, D: 45}) {
			t.Fatal("mid rejected")
		}
		if !st.AddRT(0, RTTask{Name: "high", C: 1, T: 10, D: 9}) {
			t.Fatal("high rejected")
		}
	})
	if d.WarmStarts == 0 {
		t.Fatal("no warm starts recorded for preempted-task re-analysis")
	}
}

func TestReleaseFlushesMetrics(t *testing.T) {
	before := ReadAnalysisMetrics()
	st := AcquireAnalysisState(1)
	if !st.AddRT(0, RTTask{Name: "a", C: 1, T: 10, D: 9}) {
		t.Fatal("a rejected")
	}
	ReleaseAnalysisState(st)
	after := ReadAnalysisMetrics()
	if after.FixedPoints == before.FixedPoints {
		t.Fatal("ReleaseAnalysisState did not flush staged counters")
	}
}

// A trial the hyperbolic bound admits stages no fixed point and one bound
// admit, and the release flushes a stage that holds nothing else.
func TestBoundAdmitStagesNoFixedPoint(t *testing.T) {
	before := ReadAnalysisMetrics()
	st := AcquireAnalysisState(1)
	if !st.TryAddRT(0, NewRTTask("a", 1, 10)) {
		t.Fatal("a rejected")
	}
	if st.met != (AnalysisMetrics{BoundAdmits: 1}) {
		t.Fatalf("staged %+v, want only 1 bound admit", st.met)
	}
	ReleaseAnalysisState(st)
	after := ReadAnalysisMetrics()
	if d := after.BoundAdmits - before.BoundAdmits; d != 1 {
		t.Fatalf("release flushed %d bound admits, want 1", d)
	}
	if d := after.FixedPoints - before.FixedPoints; d != 0 {
		t.Fatalf("release flushed %d fixed points, want 0", d)
	}
}

// RemoveRT leaves the hyperbolic bound's running values as a state that
// never saw the removed task holds them, including after the removal of the
// only task with D != T, which had set the product to +Inf.
func TestRemoveRTRestoresBound(t *testing.T) {
	a, b, c := NewRTTask("a", 1, 4), RTTask{Name: "b", C: 1, T: 3, D: 2}, NewRTTask("c", 2, 50)
	st, want := NewAnalysisState(1), NewAnalysisState(1)
	for _, task := range []RTTask{a, b, c} {
		if !st.AddRT(0, task) {
			t.Fatalf("%s rejected", task.Name)
		}
	}
	if !math.IsInf(st.cores[0].prod, 1) {
		t.Fatalf("product %g with a constrained deadline committed, want +Inf", st.cores[0].prod)
	}
	if !st.RemoveRT(0, b) {
		t.Fatal("b not found")
	}
	want.AddRT(0, a)
	want.AddRT(0, c)
	g, w := &st.cores[0], &want.cores[0]
	if g.prod != w.prod || g.tMin != w.tMin || g.dMax != w.dMax {
		t.Fatalf("after RemoveRT: product %g, Tmin %g, Dmax %g; fresh state: %g, %g, %g", g.prod, g.tMin, g.dMax, w.prod, w.tMin, w.dMax)
	}
}

// The overflow bucket takes what the last bound does not, and every other
// iteration count lands in the first bucket whose bound holds it.
func TestObserveBucketsMatchBounds(t *testing.T) {
	for iters := 1; iters <= 4*MaxRTAIterations; iters++ {
		want := 0
		for want < len(IterationBucketBounds) && uint64(iters) > IterationBucketBounds[want] {
			want++
		}
		var m AnalysisMetrics
		m.observe(iters, false)
		if m.IterBuckets[want] != 1 {
			t.Fatalf("%d iterations: buckets %v, want bucket %d", iters, m.IterBuckets, want)
		}
	}
}

// A refused trial checks the preempted tasks from the lowest priority up, so
// when that task misses, the trial stages exactly one fixed point: neither
// the arrival nor the other preempted task is analyzed.
func TestRefusedTrialStopsAtLowestPriorityMiss(t *testing.T) {
	st := NewAnalysisState(1)
	for _, task := range []RTTask{
		{Name: "a", C: 2, T: 10, D: 10},
		{Name: "b", C: 4, T: 12, D: 12},
	} {
		if !st.AddRT(0, task) {
			t.Fatalf("%s rejected", task.Name)
		}
	}
	before := st.met.FixedPoints
	// The arrival (R = 3) and a (R = 5) meet their deadlines; b's response
	// grows 4, 9, 12, 17 and passes D = 12.
	if st.TryAddRT(0, RTTask{Name: "x", C: 3, T: 5, D: 5}) {
		t.Fatal("trial admitted; b misses its deadline under x")
	}
	if n := st.met.FixedPoints - before; n != 1 {
		t.Fatalf("refused trial staged %d fixed points, want 1", n)
	}
}

// The arrival is checked last but still checked: a constrained-deadline
// arrival that misses its own deadline is refused even though every task it
// preempts meets its own, and the refusal leaves the core unchanged.
func TestRefusedTrialChecksArrivalLast(t *testing.T) {
	st := NewAnalysisState(1)
	for _, task := range []RTTask{
		{Name: "hi", C: 2, T: 5, D: 5},
		{Name: "lo", C: 1, T: 100, D: 100},
	} {
		if !st.AddRT(0, task) {
			t.Fatalf("%s rejected", task.Name)
		}
	}
	before := st.met.FixedPoints
	// lo meets D = 100 (R = 5); the arrival's response is 4 > D = 3.
	x := RTTask{Name: "x", C: 2, T: 20, D: 3}
	if st.TryAddRT(0, x) {
		t.Fatal("trial admitted an arrival that misses its own deadline")
	}
	if n := st.met.FixedPoints - before; n != 2 {
		t.Fatalf("refused trial staged %d fixed points, want 2 (lo, then the arrival)", n)
	}
	if st.AddRT(0, x) || st.RTCount(0) != 2 {
		t.Fatalf("AddRT committed a refused arrival: %d tasks on the core", st.RTCount(0))
	}
}
