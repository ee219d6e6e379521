package core

import (
	"fmt"
	"math"

	"hydra/internal/rts"
)

// Policy selects the core-commitment rule HYDRA applies per security task.
// The paper's Algorithm 1 uses BestTightness; the others exist for the
// design-space ablations in the evaluation harness.
type Policy int

const (
	// BestTightness commits to the feasible core with maximum achievable
	// tightness (Algorithm 1, line 11). Ties break to the lowest core index.
	BestTightness Policy = iota
	// FirstFeasible commits to the lowest-indexed feasible core.
	FirstFeasible
	// LeastLoaded commits to the feasible core with the smallest current
	// total utilization (real-time plus committed security).
	LeastLoaded
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case BestTightness:
		return "best-tightness"
	case FirstFeasible:
		return "first-feasible"
	case LeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// HydraOptions tunes the HYDRA allocator. The zero value reproduces the
// paper's Algorithm 1 exactly.
type HydraOptions struct {
	Policy Policy
	// UseGP solves each per-core period-adaptation subproblem with the
	// geometric-programming solver (the paper's implementation route)
	// instead of the equivalent closed form. Results agree to solver
	// tolerance; the flag exists for fidelity checks and ablations.
	UseGP bool
}

// Place runs one step of Algorithm 1 (lines 5-11) for security task s: it
// solves Eq. (7) against each core's load in index order, reports each core
// it evaluates to visit when visit is non-nil, and returns the core the
// policy scores best (any finite score beats the -Inf floor, ties go to the
// lowest index, FirstFeasible stops at the first feasible core) with its
// adapted period: -1 when no core is feasible, an error for unknown policies.
func (opt HydraOptions) Place(s rts.SecurityTask, loads []rts.CoreLoad, visit func(c int, ts rts.Time, ok bool)) (int, rts.Time, error) {
	adapt := PeriodAdaptation
	if opt.UseGP {
		adapt = PeriodAdaptationGP
	}
	best, bestPeriod, bestScore := -1, rts.Time(0), math.Inf(-1)
	for c := range loads {
		ts, ok := adapt(s, loads[c])
		if visit != nil {
			visit(c, ts, ok)
		}
		if !ok {
			continue
		}
		var score float64
		switch opt.Policy {
		case BestTightness:
			score = s.Tightness(ts)
		case FirstFeasible:
			return c, ts, nil
		case LeastLoaded:
			score = 1 - loads[c].SumU // emptier core wins
		default:
			return -1, 0, fmt.Errorf("unknown policy %v", opt.Policy)
		}
		if score > bestScore {
			best, bestPeriod, bestScore = c, ts, score
		}
	}
	return best, bestPeriod, nil
}

// Hydra runs Algorithm 1: process security tasks from highest to lowest
// priority; for each, solve the period-adaptation problem of Eq. (7) on
// every core, and commit the task (with its adapted period) to the core
// chosen by the policy. It returns an unschedulable Result when some task
// has no feasible core (line 9).
func Hydra(in *Input, opt HydraOptions) *Result { return hydra(in, opt, nil) }

// hydra is Hydra, also appending one Decision per processed task to ex when
// ex is non-nil (ExplainHydra).
func hydra(in *Input, opt HydraOptions, ex *Explanation) *Result {
	if err := in.Validate(); err != nil {
		return newInfeasible("hydra", err.Error())
	}
	sc := acquireScratch()
	defer releaseScratch(sc)
	sc.loads = in.copyRTLoads(sc.loads)
	loads := sc.loads // mutated as security tasks are committed
	assign := make([]int, len(in.Sec))
	periods := make([]rts.Time, len(in.Sec))

	for rank, i := range in.secOrder() {
		s := in.Sec[i]
		var d Decision
		var visit func(c int, ts rts.Time, ok bool)
		if ex != nil {
			d = Decision{TaskIndex: i, TaskName: s.Name, Rank: rank}
			visit = func(c int, ts rts.Time, ok bool) {
				cand := CandidateEval{Core: c, MinPeriod: loads[c].MinFeasiblePeriod(s.C), CoreUtil: loads[c].SumU}
				if ok {
					cand.Feasible, cand.Period, cand.Tightness = true, ts, s.Tightness(ts)
				}
				d.Candidates = append(d.Candidates, cand)
			}
		}
		c, ts, err := opt.Place(s, loads, visit)
		if err != nil {
			return newInfeasible("hydra", err.Error())
		}
		if ex != nil {
			d.Chosen = c
			ex.Decisions = append(ex.Decisions, d)
		}
		if c < 0 {
			return newInfeasible("hydra",
				fmt.Sprintf("no feasible core for security task %q (C=%g, TDes=%g, TMax=%g)", s.Name, s.C, s.TDes, s.TMax))
		}
		assign[i] = c
		periods[i] = ts
		loads[c].AddPeriodic(s.C, ts)
	}
	return finalize(in, "hydra", assign, periods)
}
