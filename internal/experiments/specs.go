// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sec. IV): Table I (the security workload), Fig. 1
// (detection-time ECDFs on the UAV case study), Fig. 2 (acceptance-ratio
// improvement on synthetic tasksets) and Fig. 3 (tightness gap to the
// optimal assignment). Each driver is deterministic given its seed and
// returns plot-ready rows/series matching what the paper reports.
package experiments

import (
	"fmt"
	"sort"

	"hydra/internal/core"
	"hydra/internal/sim"
)

// secPrioBase separates the security priority band from the real-time band:
// every security task has a numerically larger (= lower) priority than every
// real-time task, implementing opportunistic execution.
const secPrioBase = 1 << 20

// BuildSimSpecs lowers an allocation result onto per-core simulator task
// lists. Real-time tasks get rate-monotonic priorities (global rank order);
// security tasks sit in a strictly lower band, ordered by the paper's
// smaller-TMax-first rule. It also returns, for each security task (input
// order), its core and its spec index within that core — the mapping a
// detection campaign needs. Like core.Verify, it honors the RT partition the
// result was actually solved against (Result.RTPartition), so schemes that
// repartition internally simulate correctly.
func BuildSimSpecs(in *core.Input, res *core.Result) ([][]sim.TaskSpec, []int, []int, error) {
	in = core.EffectiveInput(in, res)
	if !res.Schedulable {
		return nil, nil, nil, fmt.Errorf("experiments: cannot simulate unschedulable result (%s)", res.Reason)
	}
	if len(res.Assignment) != len(in.Sec) || len(res.Periods) != len(in.Sec) {
		return nil, nil, nil, fmt.Errorf("experiments: result does not cover the security taskset")
	}

	// Global RM ranks for real-time tasks.
	rtRank := make([]int, len(in.RT))
	order := make([]int, len(in.RT))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := in.RT[order[a]], in.RT[order[b]]
		if ta.T != tb.T {
			return ta.T < tb.T
		}
		return ta.Name < tb.Name
	})
	for rank, i := range order {
		rtRank[i] = rank
	}

	// Security ranks by TMax (paper's priority rule).
	secRank := make([]int, len(in.Sec))
	for rank, i := range core.SecurityPriorityOrder(in.Sec) {
		secRank[i] = rank
	}

	perCore := make([][]sim.TaskSpec, in.M)
	for i, t := range in.RT {
		c := in.RTPartition[i]
		perCore[c] = append(perCore[c], sim.TaskSpec{
			Name: t.Name, C: t.C, T: t.T, Prio: rtRank[i], Kind: sim.KindRT,
		})
	}
	taskCore := make([]int, len(in.Sec))
	taskIndex := make([]int, len(in.Sec))
	for i, s := range in.Sec {
		c := res.Assignment[i]
		taskCore[i] = c
		taskIndex[i] = len(perCore[c])
		perCore[c] = append(perCore[c], sim.TaskSpec{
			Name: s.Name, C: s.C, T: res.Periods[i],
			Prio: secPrioBase + secRank[i], Kind: sim.KindSecurity,
		})
	}
	return perCore, taskCore, taskIndex, nil
}
