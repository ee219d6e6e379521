// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sec. IV): Table I (the security workload), Fig. 1
// (detection-time ECDFs on the UAV case study), Fig. 2 (acceptance-ratio
// improvement on synthetic tasksets) and Fig. 3 (tightness gap to the
// optimal assignment). Each driver is deterministic given its seed and
// returns plot-ready rows/series matching what the paper reports.
package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"hydra/internal/core"
	"hydra/internal/detect"
	"hydra/internal/sim"
)

// secPrioBase separates the security priority band from the real-time band:
// every security task has a numerically larger (= lower) priority than every
// real-time task, implementing opportunistic execution.
const secPrioBase = 1 << 20

// BuildSimSpecs verifies an allocation result (core.Verify) and lowers it
// onto per-core simulator task lists. Real-time tasks get rate-monotonic
// priorities (global rank order); security tasks sit in a strictly lower
// band, ordered by the paper's smaller-TMax-first rule. It also returns, for
// each security task (input order), its core and its spec index within that
// core — the mapping a detection campaign needs. Like core.Verify, it honors
// the RT partition the result was actually solved against
// (Result.RTPartition), so schemes that repartition internally simulate
// correctly.
func BuildSimSpecs(in *core.Input, res *core.Result) ([][]sim.TaskSpec, []int, []int, error) {
	if err := core.Verify(in, res); err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: %s allocation failed verification: %w", res.Scheme, err)
	}
	in = core.EffectiveInput(in, res)

	// Global RM ranks for real-time tasks.
	rtRank := make([]int, len(in.RT))
	order := make([]int, len(in.RT))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(in.RT[a].T, in.RT[b].T), strings.Compare(in.RT[a].Name, in.RT[b].Name))
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
	taskCore := slices.Clone(res.Assignment)
	taskIndex := make([]int, len(in.Sec))
	for i, s := range in.Sec {
		c := taskCore[i]
		taskIndex[i] = len(perCore[c])
		perCore[c] = append(perCore[c], sim.TaskSpec{
			Name: s.Name, C: s.C, T: res.Periods[i],
			Prio: secPrioBase + secRank[i], Kind: sim.KindSecurity,
		})
	}
	return perCore, taskCore, taskIndex, nil
}

// Simulate is the one path from an allocation to its intrusion-detection
// measurement (Fig. 1, hydra-sim, /v1/simulate): it verifies and lowers res
// (BuildSimSpecs), simulates [0, horizon) and returns the detection campaign
// over the trace. Pinned mode simulates each core on its own
// (sim.SimulateSystem); security task i is spec taskIndex[i] of core
// taskCore[i]. With slack, the real-time tasks stay on their cores and the
// security tasks, in input order, run on any idle core (the Sec. V slack
// reclamation, sim.SimulateGlobalSlack); security task i is spec i of the
// virtual trace M.
func Simulate(in *core.Input, res *core.Result, horizon sim.Time, slack bool) (*detect.Campaign, error) {
	perCore, taskCore, taskIndex, err := BuildSimSpecs(in, res)
	if err != nil {
		return nil, err
	}
	var trace *sim.SystemTrace
	if slack {
		sec := make([]sim.TaskSpec, len(taskCore))
		for i, c := range taskCore {
			sec[i] = perCore[c][taskIndex[i]]
			taskCore[i], taskIndex[i] = len(perCore), i
		}
		for c, specs := range perCore {
			perCore[c] = slices.DeleteFunc(specs, func(s sim.TaskSpec) bool { return s.Kind == sim.KindSecurity })
		}
		trace, err = sim.SimulateGlobalSlack(perCore, sec, horizon)
	} else {
		trace, err = sim.SimulateSystem(perCore, horizon)
	}
	if err != nil {
		return nil, err
	}
	return detect.NewCampaign(trace, taskCore, taskIndex)
}
