package rts

import "math"

// InterferingTask is one higher-priority interferer (WCET, period) for the
// exact security-task response-time analysis.
type InterferingTask struct {
	C Time
	T Time
}

// ExactSecurityResponseTimeFull computes the exact worst-case response time
// of a security task with WCET c and period/deadline d under the
// ceiling-based interference model
//
//	R = c + sum_h ceil(R/T_h) * C_h,
//
// where hp is every real-time task and higher-priority security task on the
// same core. This is strictly tighter than the paper's linear bound of
// Eq. (5), (1 + Ts/T_h)*C_h, because ceil(x) < x + 1: any allocation feasible
// under Eq. (6) is feasible here too, so the paper's analysis is sound,
// merely pessimistic. It follows the divergence contract of ResponseTimeFull:
//
//   - schedulable && converged: r is the exact response time, r <= d;
//   - !schedulable && converged: proven miss — the demand at the last
//     iterate already exceeds d (r > d);
//   - !schedulable && !converged: the iteration hit MaxRTAIterations while
//     still below d. The exact response time is unknown but >= r; treating
//     the task as unschedulable is conservative, never unsound.
func ExactSecurityResponseTimeFull(c Time, d Time, hp []InterferingTask) (r Time, schedulable, converged bool) {
	r = c
	for iter := 0; iter < MaxRTAIterations; iter++ {
		next := c
		for _, h := range hp {
			next += math.Ceil(r/h.T) * h.C
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

// LinearSecurityResponseBound evaluates the paper's Eq. (5)+(6) left side
// c + sum_h (1 + ts/T_h)*C_h for the same interferer set — the quantity the
// allocation schemes constrain to be <= ts.
func LinearSecurityResponseBound(c Time, ts Time, hp []InterferingTask) Time {
	b := c
	for _, h := range hp {
		b += (1 + ts/h.T) * h.C
	}
	return b
}
