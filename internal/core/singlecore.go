package core

import (
	"fmt"

	"hydra/internal/partition"
	"hydra/internal/rts"
)

// SingleCore evaluates the alternate design point of Sec. IV: dedicate the
// last core entirely to security tasks and pack all real-time tasks onto the
// remaining M-1 cores. Security tasks suffer no real-time interference (the
// first term of Eq. 5 vanishes) but interfere with each other; periods are
// adapted in priority order exactly as in HYDRA's per-core subproblem.
//
// It takes the raw real-time taskset (not a partition) because the scheme
// repartitions onto M-1 cores itself, using heuristic h (the paper uses
// best-fit). The returned assignment places every security task on core M-1.
// It is infeasible when m < 2, when any task is invalid, or when the
// real-time tasks do not fit on m-1 cores.
func SingleCore(m int, rt []rts.RTTask, sec []rts.SecurityTask, h partition.Heuristic) *Result {
	if m < 2 {
		return newInfeasible("singlecore", fmt.Sprintf("core: singlecore needs at least 2 cores (1 for security), got %d", m))
	}
	if err := rts.ValidateAll(rt, sec); err != nil {
		return newInfeasible("singlecore", err.Error())
	}
	part, err := partition.PartitionRT(rt, m-1, h)
	if err != nil {
		return newInfeasible("singlecore", fmt.Sprintf("core: real-time tasks do not fit on %d cores: %v", m-1, err))
	}
	return SingleCoreInput(&Input{M: m, RT: rt, RTPartition: part.CoreOf, Sec: sec})
}

// SingleCoreInput mirrors SingleCore but reuses an existing Input whose RT
// partition already avoids the dedicated core. It returns an error result if
// any real-time task sits on the security core.
func SingleCoreInput(in *Input) *Result {
	if in.M < 2 {
		return newInfeasible("singlecore", fmt.Sprintf("needs at least 2 cores, got %d", in.M))
	}
	if err := in.Validate(); err != nil {
		return newInfeasible("singlecore", err.Error())
	}
	secCore := in.M - 1
	for i, c := range in.RTPartition {
		if c == secCore {
			return newInfeasible("singlecore",
				fmt.Sprintf("real-time task %q occupies the dedicated security core %d", in.RT[i].Name, secCore))
		}
	}
	var load rts.CoreLoad
	assign := make([]int, len(in.Sec))
	periods := make([]rts.Time, len(in.Sec))
	for _, i := range in.secOrder() {
		s := in.Sec[i]
		ts, ok := PeriodAdaptation(s, load)
		if !ok {
			return newInfeasible("singlecore",
				fmt.Sprintf("security core cannot fit task %q", s.Name))
		}
		assign[i] = secCore
		periods[i] = ts
		load.AddPeriodic(s.C, ts)
	}
	return finalize(in, "singlecore", assign, periods)
}
