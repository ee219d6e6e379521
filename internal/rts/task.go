// Package rts defines the real-time system model of the paper: sporadic
// real-time tasks under partitioned fixed-priority preemptive scheduling with
// rate-monotonic priorities, sporadic security tasks with adaptable periods,
// and the associated schedulability analyses (exact response-time analysis,
// demand-bound functions, and the linear interference bound of Eq. 5).
//
// All times are in milliseconds, represented as float64.
package rts

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Time is a duration or instant in milliseconds.
type Time = float64

// RTTask is a sporadic real-time task (C, T, D) — Sec. II-A. Deadlines are
// implicit in the paper (D = T); the model keeps D separate so extensions
// with constrained deadlines remain expressible.
type RTTask struct {
	Name string
	C    Time // worst-case execution time
	T    Time // minimum inter-arrival separation (period)
	D    Time // relative deadline
}

// Utilization returns C/T.
func (t RTTask) Utilization() float64 { return t.C / t.T }

// Validate checks the task parameters.
func (t RTTask) Validate() error {
	switch {
	case !(t.C > 0) || math.IsInf(t.C, 0) || math.IsNaN(t.C):
		return fmt.Errorf("rts: task %q: WCET must be positive and finite, got %g", t.Name, t.C)
	case !(t.T > 0) || math.IsInf(t.T, 0) || math.IsNaN(t.T):
		return fmt.Errorf("rts: task %q: period must be positive and finite, got %g", t.Name, t.T)
	case !(t.D > 0) || math.IsInf(t.D, 0) || math.IsNaN(t.D):
		return fmt.Errorf("rts: task %q: deadline must be positive and finite, got %g", t.Name, t.D)
	case t.C > t.D:
		return fmt.Errorf("rts: task %q: WCET %g exceeds deadline %g", t.Name, t.C, t.D)
	case t.D > t.T:
		return fmt.Errorf("rts: task %q: deadline %g exceeds period %g (constrained deadlines only)", t.Name, t.D, t.T)
	}
	return nil
}

// NewRTTask builds an implicit-deadline real-time task (D = T).
func NewRTTask(name string, c, t Time) RTTask {
	return RTTask{Name: name, C: c, T: t, D: t}
}

// SecurityTask is a sporadic security task (Cs, Tdes, Tmax) — Sec. II-C.
// The achievable period Ts is chosen by the allocator within [TDes, TMax];
// Weight is the tightness weight omega_s of Eq. (3).
type SecurityTask struct {
	Name   string
	C      Time    // worst-case execution time
	TDes   Time    // desired (best) period
	TMax   Time    // maximum period beyond which monitoring is ineffective
	Weight float64 // omega_s; zero means "use 1"
}

// EffectiveWeight returns the tightness weight, defaulting to 1.
func (s SecurityTask) EffectiveWeight() float64 {
	if s.Weight > 0 {
		return s.Weight
	}
	return 1
}

// Validate checks the security-task parameters.
func (s SecurityTask) Validate() error {
	switch {
	case !(s.C > 0) || math.IsInf(s.C, 0) || math.IsNaN(s.C):
		return fmt.Errorf("rts: security task %q: WCET must be positive and finite, got %g", s.Name, s.C)
	case !(s.TDes > 0) || math.IsInf(s.TDes, 0) || math.IsNaN(s.TDes):
		return fmt.Errorf("rts: security task %q: desired period must be positive and finite, got %g", s.Name, s.TDes)
	case !(s.TMax > 0) || math.IsInf(s.TMax, 0) || math.IsNaN(s.TMax):
		return fmt.Errorf("rts: security task %q: max period must be positive and finite, got %g", s.Name, s.TMax)
	case s.TDes > s.TMax:
		return fmt.Errorf("rts: security task %q: desired period %g exceeds max period %g", s.Name, s.TDes, s.TMax)
	case s.C > s.TDes:
		return fmt.Errorf("rts: security task %q: WCET %g exceeds desired period %g", s.Name, s.C, s.TDes)
	}
	return nil
}

// DesiredUtilization returns C/TDes, the share at the desired rate.
func (s SecurityTask) DesiredUtilization() float64 { return s.C / s.TDes }

// Tightness returns eta_s = TDes/period for an achieved period (Eq. 2).
// It returns 0 for a non-positive period.
func (s SecurityTask) Tightness(period Time) float64 {
	if period <= 0 {
		return 0
	}
	return s.TDes / period
}

// ErrEmptyTaskSet is returned when an operation needs at least one task.
var ErrEmptyTaskSet = errors.New("rts: empty task set")

// SortRateMonotonic orders real-time tasks by rate-monotonic priority
// (shorter period first; ties broken by name for determinism). Index 0 is
// the highest priority, matching the paper's distinct-RM-priority assumption.
func SortRateMonotonic(tasks []RTTask) {
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].T != tasks[j].T {
			return tasks[i].T < tasks[j].T
		}
		return tasks[i].Name < tasks[j].Name
	})
}

// SortSecurityPriority orders security tasks by the paper's rule
// pri(s1) > pri(s2) iff TMax_1 < TMax_2 (Sec. II-C), ties by name. Index 0
// is the highest-priority security task.
func SortSecurityPriority(tasks []SecurityTask) {
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].TMax != tasks[j].TMax {
			return tasks[i].TMax < tasks[j].TMax
		}
		return tasks[i].Name < tasks[j].Name
	})
}

// TotalRTUtilization sums C/T over the real-time tasks.
func TotalRTUtilization(tasks []RTTask) float64 {
	var u float64
	for _, t := range tasks {
		u += t.Utilization()
	}
	return u
}

// TotalSecurityDesiredUtilization sums C/TDes over the security tasks.
func TotalSecurityDesiredUtilization(tasks []SecurityTask) float64 {
	var u float64
	for _, t := range tasks {
		u += t.DesiredUtilization()
	}
	return u
}

// ValidateAll validates every task in both sets.
func ValidateAll(rt []RTTask, sec []SecurityTask) error {
	for _, t := range rt {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	for _, s := range sec {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}
