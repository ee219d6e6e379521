package rts

import "testing"

// The three fixed-point loops beyond ResponseTimeFull carried hard-coded
// iteration caps and folded non-convergence into their failure verdict. These
// tests pin the ported contract: a pathological slowly-converging instance is
// reported as !converged (not as a proven miss), and the legacy wrappers stay
// conservative.

// Pathological slow convergence for the exact security RTA: one interferer
// with utilization within ~1e-4 of 1 pushes the fixed point to ~15000,
// approached in steps of ~1 — beyond MaxRTAIterations — while the deadline
// (20000) is never exceeded along the way.
func TestExactSecurityResponseTimeNonConvergenceReported(t *testing.T) {
	hp := []InterferingTask{{C: 1, T: 1.0001}}
	c, d := Time(1.5), Time(20000)

	r, schedulable, converged := ExactSecurityResponseTimeFull(c, d, hp)
	if schedulable {
		t.Fatalf("pathological instance reported schedulable (r=%g)", r)
	}
	if converged {
		t.Fatalf("iteration cannot converge in %d iterations, got converged=true (r=%g)", MaxRTAIterations, r)
	}
	if r > d {
		t.Fatalf("non-convergent iterate %g must still be below the deadline %g", r, d)
	}
}

// A genuine miss of the security RTA is reported as converged.
func TestExactSecurityResponseTimeMissIsConverged(t *testing.T) {
	hp := []InterferingTask{{C: 6, T: 10}}
	r, schedulable, converged := ExactSecurityResponseTimeFull(5, 10, hp)
	if schedulable {
		t.Fatalf("r=%g should miss d=10", r)
	}
	if !converged {
		t.Fatal("a proven miss must be reported as converged")
	}
	if r <= 10 {
		t.Fatalf("missing iterate %g should exceed the deadline", r)
	}
}

// The happy path of the security RTA still reports the exact fixed point with
// schedulable && converged.
func TestExactSecurityResponseTimeFullConverges(t *testing.T) {
	hp := []InterferingTask{{C: 1, T: 4}, {C: 1, T: 5}}
	r, schedulable, converged := ExactSecurityResponseTimeFull(2, 10, hp)
	if !schedulable || !converged {
		t.Fatalf("schedulable=%v converged=%v", schedulable, converged)
	}
	if r != 4 {
		t.Fatalf("r = %g, want 4", r)
	}
}

// Pathological slow convergence for the busy period: a large-WCET task with a
// huge period plus a creeper within 1e-4 of full utilization push the fixed
// point to L ~= 1000/(1-U) ~ 1e7, approached geometrically at rate ~(1-1e-4)
// — ~1.6e5 iterations, far beyond MaxRTAIterations. BusyPeriod has no
// deadline to exceed, so the only exit is the cap.
func TestBusyPeriodNonConvergenceReported(t *testing.T) {
	tasks := []RTTask{NewRTTask("bulk", 1000, 1e9), NewRTTask("creep", 1, 1.0001)}

	l, ok, converged := BusyPeriodFull(tasks)
	if ok {
		t.Fatalf("pathological taskset reported a settled busy period (l=%g)", l)
	}
	if converged {
		t.Fatalf("iteration cannot converge in %d iterations, got converged=true (l=%g)", MaxRTAIterations, l)
	}
	if l <= 0 {
		t.Fatalf("last iterate %g must be positive", l)
	}
	// The wrapper folds divergence into the conservative false.
	if _, ok := BusyPeriod(tasks); ok {
		t.Fatal("BusyPeriod must treat non-convergence as unavailable")
	}
}

// Over-utilization is a *proven* divergence of the busy period: converged
// (the verdict is final), not a blown iteration budget.
func TestBusyPeriodOverUtilizationIsConverged(t *testing.T) {
	tasks := []RTTask{NewRTTask("a", 3, 4), NewRTTask("b", 2, 4)}
	if _, ok, converged := BusyPeriodFull(tasks); ok || !converged {
		t.Fatalf("over-utilized core: ok=%v converged=%v, want false/true", ok, converged)
	}
}

// The happy path of the busy period still settles.
func TestBusyPeriodFullConverges(t *testing.T) {
	tasks := []RTTask{NewRTTask("a", 1, 4), NewRTTask("b", 1, 5)}
	l, ok, converged := BusyPeriodFull(tasks)
	if !ok || !converged {
		t.Fatalf("ok=%v converged=%v", ok, converged)
	}
	// L = ceil(L/4) + ceil(L/5): fixed point at L = 2.
	if l != 2 {
		t.Fatalf("l = %g, want 2", l)
	}
}

// Pathological slow convergence for the jitter+blocking RTA, same shape as
// TestResponseTimeNonConvergenceReported with a nonzero blocking term.
func TestResponseTimeWithJitterBlockingNonConvergenceReported(t *testing.T) {
	hp := []JitteredTask{{C: 1, T: 1.0001, J: 0}}
	c, b, d := Time(1), Time(0.5), Time(20000)

	r, schedulable, converged := ResponseTimeWithJitterBlockingFull(c, b, d, hp)
	if schedulable {
		t.Fatalf("pathological instance reported schedulable (r=%g)", r)
	}
	if converged {
		t.Fatalf("iteration cannot converge in %d iterations, got converged=true (r=%g)", MaxRTAIterations, r)
	}
	if r > d {
		t.Fatalf("non-convergent iterate %g must still be below the deadline %g", r, d)
	}
	// The wrapper folds divergence into the conservative false.
	if _, ok := ResponseTimeWithJitterBlocking(c, b, d, hp); ok {
		t.Fatal("ResponseTimeWithJitterBlocking must treat non-convergence as unschedulable")
	}
}

// A genuine miss of the jitter+blocking RTA is reported as converged, and the
// happy path reaches its fixed point.
func TestResponseTimeWithJitterBlockingContract(t *testing.T) {
	if r, schedulable, converged := ResponseTimeWithJitterBlockingFull(5, 0, 10, []JitteredTask{{C: 6, T: 10}}); schedulable || !converged || r <= 10 {
		t.Fatalf("miss: r=%g schedulable=%v converged=%v, want >10/false/true", r, schedulable, converged)
	}
	// R = 2.5 + ceil((R+1)/5): blocking 0.5, jitter 1 -> fixed point 4.5? Walk
	// it: r0=2.5, next=2+0.5+ceil(3.5/5)*1=3.5; next=2.5+ceil(4.5/5)=3.5. Fixed.
	r, schedulable, converged := ResponseTimeWithJitterBlockingFull(2, 0.5, 10, []JitteredTask{{C: 1, T: 5, J: 1}})
	if !schedulable || !converged {
		t.Fatalf("schedulable=%v converged=%v", schedulable, converged)
	}
	if r != 3.5 {
		t.Fatalf("r = %g, want 3.5", r)
	}
}
