package core

import (
	"fmt"
	"io"
	"sort"

	"hydra/internal/rts"
)

// CandidateEval records the outcome of the period-adaptation subproblem for
// one (task, core) pair during an explained HYDRA run.
type CandidateEval struct {
	Core      int
	Feasible  bool
	Period    rts.Time // adapted period when feasible
	Tightness float64  // TDes/Period when feasible
	MinPeriod rts.Time // (C + SumC)/(1 - SumU) before clamping; +Inf if saturated
	CoreUtil  float64  // committed utilization on the core before this task
}

// Decision is one step of Algorithm 1 with its full candidate table.
type Decision struct {
	TaskIndex  int // index into Input.Sec
	TaskName   string
	Rank       int // position in the priority order (0 = highest)
	Candidates []CandidateEval
	Chosen     int // chosen core, -1 when infeasible everywhere
}

// Explanation is the complete decision trace of a HYDRA run.
type Explanation struct {
	Decisions []Decision
	Result    *Result
}

// ExplainHydra runs Algorithm 1 with the paper's best-tightness policy while
// recording every per-core evaluation, so a designer can see *why* each task
// landed where it did — and, for an unschedulable verdict, which core came
// closest (the actionable hint the paper promises in Sec. III-B). Hydra's own
// loop records the trace, so Result equals Hydra(in, HydraOptions{}).
func ExplainHydra(in *Input) *Explanation {
	ex := &Explanation{}
	ex.Result = hydra(in, HydraOptions{}, ex)
	return ex
}

// ClosestCore returns, for an infeasible decision, the core whose minimum
// feasible period came closest to the task's TMax, plus that period — the
// most promising direction for parameter relaxation. ok is false when the
// decision was feasible or has no candidates.
func (d Decision) ClosestCore() (int, rts.Time, bool) {
	if d.Chosen >= 0 || len(d.Candidates) == 0 {
		return 0, 0, false
	}
	idx := -1
	best := rts.Time(0)
	for _, c := range d.Candidates {
		if idx < 0 || c.MinPeriod < best {
			best = c.MinPeriod
			idx = c.Core
		}
	}
	return idx, best, true
}

// WriteText renders the trace as an indented report.
func (ex *Explanation) WriteText(w io.Writer) error {
	for _, d := range ex.Decisions {
		status := "infeasible everywhere"
		if d.Chosen >= 0 {
			status = fmt.Sprintf("-> core %d", d.Chosen)
		}
		if _, err := fmt.Fprintf(w, "[%d] %s %s\n", d.Rank, d.TaskName, status); err != nil {
			return err
		}
		cands := append([]CandidateEval(nil), d.Candidates...)
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].Core < cands[b].Core })
		for _, c := range cands {
			marker := " "
			if c.Core == d.Chosen {
				marker = "*"
			}
			if c.Feasible {
				fmt.Fprintf(w, "  %s core %d: period %8.1f ms, tightness %.3f (core util %.2f)\n",
					marker, c.Core, c.Period, c.Tightness, c.CoreUtil)
			} else {
				fmt.Fprintf(w, "  %s core %d: infeasible (needs >= %.1f ms, core util %.2f)\n",
					marker, c.Core, c.MinPeriod, c.CoreUtil)
			}
		}
		if d.Chosen < 0 {
			if c, p, ok := d.ClosestCore(); ok {
				fmt.Fprintf(w, "  hint: core %d is closest; raising TMax above %.1f ms would fit\n", c, p)
			}
		}
	}
	if ex.Result != nil && ex.Result.Schedulable {
		fmt.Fprintf(w, "cumulative tightness: %.3f\n", ex.Result.Cumulative)
	}
	return nil
}
