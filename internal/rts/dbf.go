package rts

import "math"

// DBF computes the demand bound function of a sporadic task over an interval
// of length t (Sec. II-A):
//
//	DBF(tau, t) = max(0, (floor((t - D)/T) + 1) * C).
func DBF(task RTTask, t Time) Time {
	if t < task.D {
		return 0
	}
	n := math.Floor((t-task.D)/task.T) + 1
	if n <= 0 {
		return 0
	}
	return n * task.C
}

// NecessaryConditionHolds checks the multiprocessor feasibility necessary
// condition of Eq. (1): sum_r DBF(tau_r, t) <= M*t for all t > 0.
//
// For implicit-deadline tasks DBF(tau, t) = floor(t/T)*C <= U*t, so the
// condition holds for every t whenever total utilization <= M; conversely a
// total utilization above M violates it for large t. For constrained
// deadlines the function additionally samples every absolute deadline
// D + k*T up to the evaluation horizon (the standard first-busy-period style
// test set), which is exact for the check.
func NecessaryConditionHolds(tasks []RTTask, m int) bool {
	if m <= 0 {
		return len(tasks) == 0
	}
	var util float64
	implicit := true
	for _, t := range tasks {
		util += t.Utilization()
		if t.D != t.T {
			implicit = false
		}
	}
	if !UtilizationFits(util, m) {
		return false
	}
	if implicit {
		return true
	}
	// Constrained deadlines: sample deadlines up to a utilization-derived
	// horizon; beyond it the linear bound M*t dominates because util <= M.
	horizon := dbfHorizon(tasks, m, util)
	for _, t := range tasks {
		for d := t.D; d <= horizon; d += t.T {
			var demand Time
			for _, o := range tasks {
				demand += DBF(o, d)
			}
			if demand > float64(m)*d+necessaryEps {
				return false
			}
		}
	}
	return true
}

// necessaryEps is the tolerance of Eq. (1)'s comparisons.
const necessaryEps = 1e-12

// UtilizationFits is Eq. (1) for implicit-deadline tasks whose utilizations
// sum to util: a total of at most m, within the same tolerance as
// NecessaryConditionHolds.
func UtilizationFits(util float64, m int) bool { return !(util > float64(m)+necessaryEps) }

// dbfHorizon returns a finite check horizon for the constrained-deadline
// necessary-condition test. DBF(tau,t) <= C + U*(t-D) + U*T, so total demand
// <= sum(C + U*(T-D)) + util*t; demand can exceed M*t only while
// t < sum(C + U*(T-D)) / (M - util). A small floor keeps the scan nonempty.
func dbfHorizon(tasks []RTTask, m int, util float64) Time {
	var num Time
	var maxD Time
	for _, t := range tasks {
		num += t.C + t.Utilization()*(t.T-t.D)
		if t.D > maxD {
			maxD = t.D
		}
	}
	denom := float64(m) - util
	if denom <= 0 {
		return maxD
	}
	h := num / denom
	if h < maxD {
		h = maxD
	}
	return h
}
