package core

import (
	"fmt"

	"hydra/internal/rts"
)

// ExtOptions configures HydraExt, which implements the extensions sketched
// in the paper's Discussion (Sec. V) on top of Algorithm 1.
type ExtOptions struct {
	// HydraOptions picks the core policy and the period-adaptation route
	// exactly as in Hydra; both run through HydraOptions.Place. No
	// registered scheme sets UseGP here.
	HydraOptions

	// NonPreemptiveSecurity makes every security task execute its jobs
	// non-preemptively *within the security band* (real-time tasks still
	// preempt, so the real-time schedule is never perturbed). Analytically
	// each security task then suffers a blocking term equal to the largest
	// WCET among lower-priority security tasks, added to Eq. (6):
	//
	//	Cs + B_s + I_s <= Ts,  B_s = max_{l in lpS(s)} C_l.
	//
	// The blocking bound is core-agnostic (any lower-priority task might
	// later land on the same core), hence conservative but safe.
	NonPreemptiveSecurity bool

	// Chains lists precedence chains by Input.Sec index: within a chain,
	// earlier tasks are predecessors (e.g. Tripwire must verify its own
	// binary before checking system binaries). HydraExt enforces, for each
	// consecutive pair (p, s):
	//
	//	1. p is allocated before s and has higher effective priority;
	//	2. s is placed on the same core as p (so the priority relation
	//	   serializes every p-job before the next s-job);
	//	3. Ts >= Tp (s cannot usefully run more often than its predecessor).
	//
	// A task may appear in at most one chain.
	Chains [][]int
}

// HydraExt runs HYDRA with the Sec. V extensions. With the zero ExtOptions
// it behaves exactly like Hydra.
func HydraExt(in *Input, opt ExtOptions) *Result {
	if err := in.Validate(); err != nil {
		return newInfeasible("hydra-ext", err.Error())
	}
	sc := acquireScratch()
	defer releaseScratch(sc)
	order, chainPred, err := extOrder(in, opt.Chains, sc)
	if err != nil {
		return newInfeasible("hydra-ext", err.Error())
	}

	// Blocking terms: for each task (by priority rank), the largest WCET of
	// any task processed after it. Computed over the processing order.
	sc.blocking = filled(sc.blocking, len(in.Sec), 0)
	blocking := sc.blocking
	if opt.NonPreemptiveSecurity {
		var maxC rts.Time
		for k := len(order) - 1; k >= 0; k-- {
			blocking[order[k]] = maxC
			if c := in.Sec[order[k]].C; c > maxC {
				maxC = c
			}
		}
	}

	sc.loads = in.copyRTLoads(sc.loads)
	loads := sc.loads
	assign := make([]int, len(in.Sec))
	periods := make([]rts.Time, len(in.Sec))
	for i := range assign {
		assign[i] = -1
	}

	for _, i := range order {
		s := in.Sec[i]
		// Blocking enters the analysis exactly like extra execution demand.
		s.C += blocking[i]
		cores, first := loads, 0
		if p := chainPred[i]; p >= 0 {
			if assign[p] < 0 {
				return newInfeasible("hydra-ext", fmt.Sprintf("internal: predecessor of %q not yet allocated", s.Name))
			}
			// The successor's only candidate is p's core, so scoring its
			// raised TDes picks the core the original TDes would.
			first = assign[p]
			cores = loads[first : first+1]
			if periods[p] > s.TDes {
				s.TDes = periods[p]
			}
		}
		if s.TDes > s.TMax {
			return newInfeasible("hydra-ext",
				fmt.Sprintf("task %q: chain-inherited period %g exceeds TMax %g", s.Name, s.TDes, s.TMax))
		}
		c, ts, err := opt.Place(s, cores, nil)
		if err != nil {
			return newInfeasible("hydra-ext", err.Error())
		}
		if c < 0 {
			return newInfeasible("hydra-ext", fmt.Sprintf("no feasible core for security task %q", s.Name))
		}
		c += first
		assign[i] = c
		periods[i] = ts
		// Commit the inflated demand (WCET + blocking is pessimistic for
		// interference on later tasks but keeps the analysis one-sided).
		loads[c].AddPeriodic(s.C, ts)
	}
	return finalize(in, "hydra-ext", assign, periods)
}

// extOrder derives the processing order: the usual priority order (ascending
// TMax) stably adjusted so every chain predecessor precedes its successors.
// It returns the order plus, per task, its direct chain predecessor (-1 for
// none). Both returned slices are backed by sc's pooled buffers and are only
// valid until the scratch is released.
func extOrder(in *Input, chains [][]int, sc *allocScratch) ([]int, []int, error) {
	chainPred := filled(sc.chainPred, len(in.Sec), -1)
	sc.chainPred = chainPred
	for ci, chain := range chains {
		for k, idx := range chain {
			if idx < 0 || idx >= len(in.Sec) {
				return nil, nil, fmt.Errorf("core: chain %d references unknown security task %d", ci, idx)
			}
			if k == 0 {
				continue
			}
			pred := chain[k-1]
			if idx == pred {
				return nil, nil, fmt.Errorf("core: chain %d has task %d preceding itself", ci, idx)
			}
			// Tree-shaped precedence is allowed (one task may head several
			// chains), but each task has at most one predecessor.
			if chainPred[idx] >= 0 && chainPred[idx] != pred {
				return nil, nil, fmt.Errorf("core: security task %d has two different predecessors (%d and %d)", idx, chainPred[idx], pred)
			}
			chainPred[idx] = pred
		}
	}

	base := in.secOrder()
	// Kahn-style stable topological sort over the chain edges, scanning the
	// base priority order repeatedly; chains are short so this stays cheap.
	sc.placed = filled(sc.placed, len(in.Sec), false)
	placed := sc.placed
	order := sc.order[:0]
	for len(order) < len(base) {
		progressed := false
		for _, i := range base {
			if placed[i] {
				continue
			}
			if p := chainPred[i]; p >= 0 && !placed[p] {
				continue
			}
			placed[i] = true
			order = append(order, i)
			progressed = true
		}
		if !progressed {
			return nil, nil, fmt.Errorf("core: precedence chains contain a cycle")
		}
	}
	sc.order = order
	return order, chainPred, nil
}
