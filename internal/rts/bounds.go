package rts

import "math"

// Hyperperiod returns the least common multiple of the task periods, the
// cycle after which a synchronous periodic schedule repeats. Periods are
// interpreted at the given resolution (e.g. 1.0 = millisecond, 0.1 = tenth
// of a millisecond); non-representable periods or an overflowing LCM return
// ok = false.
func Hyperperiod(tasks []RTTask, resolution Time) (Time, bool) {
	if resolution <= 0 || len(tasks) == 0 {
		return 0, false
	}
	lcm := uint64(1)
	const limit = uint64(1) << 53 // stay exactly representable in float64
	for _, t := range tasks {
		scaled := t.T / resolution
		n := math.Round(scaled)
		if n < 1 || math.Abs(scaled-n) > 1e-9*scaled {
			return 0, false // period not representable at this resolution
		}
		g := gcd(lcm, uint64(n))
		step := lcm / g
		if uint64(n) != 0 && step > limit/uint64(n) {
			return 0, false // overflow
		}
		lcm = step * uint64(n)
	}
	return Time(lcm) * resolution, true
}

// gcd is the binary-free Euclid on uint64.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// BusyPeriod returns the length of the level-n synchronous busy period of
// the taskset on one core — the first instant L > 0 with
//
//	L = sum_i ceil(L/T_i) * C_i,
//
// which bounds how far job interactions reach. ok is false if the taskset
// over-utilizes the core (the busy period diverges) or the fixed point does
// not settle within the iteration budget; callers that need to tell those
// two apart use BusyPeriodFull.
func BusyPeriod(tasks []RTTask) (Time, bool) {
	l, ok, _ := BusyPeriodFull(tasks) //lint:allow errcontract documented legacy fold: divergence and proven over-utilization both read as unschedulable
	return l, ok
}

// BusyPeriodFull is BusyPeriod with the explicit divergence contract of
// ResponseTimeFull:
//
//   - ok && converged: l is the exact busy-period length;
//   - !ok && converged: the taskset provably over-utilizes the core
//     (utilization > 1), so the synchronous busy period diverges;
//   - !ok && !converged: the iteration hit MaxRTAIterations before settling.
//     The true busy period is unknown but >= l; treating the bound as
//     unavailable is conservative.
func BusyPeriodFull(tasks []RTTask) (l Time, ok, converged bool) {
	if len(tasks) == 0 {
		return 0, true, true
	}
	if TotalRTUtilization(tasks) > 1 {
		return 0, false, true
	}
	for _, t := range tasks {
		l += t.C
	}
	for iter := 0; iter < MaxRTAIterations; iter++ {
		var next Time
		for _, t := range tasks {
			next += math.Ceil(l/t.T) * t.C
		}
		if next == l {
			return l, true, true
		}
		l = next
	}
	return l, false, false
}

// ResponseTimeWithJitterBlocking extends the exact RTA with release jitter
// per interferer and a blocking term (for non-preemptive lower-priority
// sections):
//
//	R = c + b + sum_h ceil((R + J_h)/T_h) * C_h,
//
// returning R (measured from release, excluding the task's own jitter) and
// whether R <= d.
type JitteredTask struct {
	C, T, J Time
}

// ResponseTimeWithJitterBlocking computes the fixed point described above.
// The false outcome folds together a proven miss and a failure to converge
// within MaxRTAIterations; callers that need to distinguish them use
// ResponseTimeWithJitterBlockingFull.
func ResponseTimeWithJitterBlocking(c, b, d Time, hp []JitteredTask) (Time, bool) {
	r, schedulable, _ := ResponseTimeWithJitterBlockingFull(c, b, d, hp) //lint:allow errcontract documented legacy fold: both outcomes are safely treated as a miss
	return r, schedulable
}

// ResponseTimeWithJitterBlockingFull is ResponseTimeWithJitterBlocking with
// the explicit divergence contract of ResponseTimeFull:
//
//   - schedulable && converged: r is the exact response time, r <= d;
//   - !schedulable && converged: proven miss (r > d at the last iterate);
//   - !schedulable && !converged: the iteration hit MaxRTAIterations while
//     still below d; the true response time is unknown but >= r.
func ResponseTimeWithJitterBlockingFull(c, b, d Time, hp []JitteredTask) (r Time, schedulable, converged bool) {
	r = c + b
	for iter := 0; iter < MaxRTAIterations; iter++ {
		next := c + b
		for _, h := range hp {
			next += math.Ceil((r+h.J)/h.T) * h.C
		}
		if next == r {
			return r, r <= d, true
		}
		if next > d {
			return next, false, true
		}
		r = next
	}
	return r, false, false
}
