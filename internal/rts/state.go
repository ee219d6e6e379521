package rts

import (
	"math"
	"sync"
)

// AnalysisState is reusable, incremental per-core schedulability state — the
// allocation hot path's replacement for re-deriving sorted interferer sets
// and re-running cold response-time fixed points on every call.
//
// For each core it maintains:
//
//   - the committed real-time tasks in rate-monotonic order (insertion on
//     commit — no per-call copy+sort), with the converged response time of
//     every task memoized. Committing another task can only grow response
//     times, so the memoized fixed point is a valid warm-start seed: the RTA
//     iteration is monotone from below and restarting it at any value in
//     [C, R] reaches exactly the same least fixed point (see
//     TestWarmStartMatchesCold*). Admission trials therefore re-analyze only
//     the incoming task plus the tasks it would preempt, each warm-started;
//   - the exact-RTA interferer list (real-time tasks in seed order, then
//     committed security tasks in commit order), matching bit-for-bit the
//     interference summation order of the historical slice-building code in
//     core.VerifyExact.
//
// States are pooled: AcquireAnalysisState hands out a reset instance whose
// internal buffers are recycled across calls, keeping the steady-state
// allocation count of admission and verification loops at zero. A state is
// not safe for concurrent use; each goroutine acquires its own.
type AnalysisState struct {
	cores []coreState
	met   AnalysisMetrics // staged count-only instrumentation (metrics.go)
}

// coreState is the per-core half of AnalysisState.
type coreState struct {
	rm   []RTTask // committed RT tasks, rate-monotonic order (T asc, Name asc)
	resp []Time   // memoized converged response time per rm index; 0 = unknown
	rt   CoreLoad // Eq. 5 aggregates of the committed RT tasks

	hp  []InterferingTask // exact-RTA interferers in seed/commit order
	nRT int               // prefix of hp holding real-time tasks

	// seq logs the real-time tasks in seed/commit (arrival) order — the
	// rebuild source for RemoveRT. Float folds (rt) and interference
	// summation orders (hp) are arrival-order dependent, so a removal must
	// replay the surviving arrivals in their original order to stay
	// bit-identical to a state that never saw the removed task.
	seq []RTTask

	reseedRT  []RTTask          // RemoveRT scratch: surviving RT arrivals
	reseedSec []InterferingTask // RemoveRT scratch: committed security interferers

	// trial memoizes the last successful TryAddRT on this core, so the
	// AddRT that typically follows (the heuristics probe a core, pick it,
	// then commit) reuses the computed responses instead of re-running the
	// identical analysis. Invalidated by any commit or seed on the core.
	trial struct {
		valid bool
		task  RTTask
		k     int    // RM insertion index
		rNew  Time   // response time of the trial task
		resp  []Time // updated responses of the preempted tasks (rm[k:])
	}
}

// statePool recycles AnalysisState instances (and their internal buffers)
// across allocation calls and grid cells.
var statePool = sync.Pool{New: func() any { return new(AnalysisState) }}

// AcquireAnalysisState returns a reset m-core state from the pool.
func AcquireAnalysisState(m int) *AnalysisState {
	st := statePool.Get().(*AnalysisState)
	st.Reset(m)
	return st
}

// ReleaseAnalysisState returns a state to the pool. The caller must not use
// it afterwards.
func ReleaseAnalysisState(st *AnalysisState) {
	if st != nil {
		st.FlushMetrics()
		statePool.Put(st)
	}
}

// NewAnalysisState builds an empty m-core state (unpooled).
func NewAnalysisState(m int) *AnalysisState {
	st := new(AnalysisState)
	st.Reset(m)
	return st
}

// Reset clears the state to m empty cores, retaining internal buffers. Any
// staged instrumentation is flushed to the package totals first.
func (st *AnalysisState) Reset(m int) {
	st.FlushMetrics()
	if cap(st.cores) < m {
		st.cores = append(st.cores[:cap(st.cores)], make([]coreState, m-cap(st.cores))...)
	}
	st.cores = st.cores[:m]
	for c := range st.cores {
		cs := &st.cores[c]
		cs.clear()
	}
}

// clear empties one core's committed state, retaining buffers.
func (cs *coreState) clear() {
	cs.rm = cs.rm[:0]
	cs.resp = cs.resp[:0]
	cs.hp = cs.hp[:0]
	cs.nRT = 0
	cs.rt = CoreLoad{}
	cs.seq = cs.seq[:0]
	cs.trial.valid = false
}

// M returns the number of cores.
func (st *AnalysisState) M() int { return len(st.cores) }

// RTLoad returns the Eq. 5 aggregates of the real-time tasks committed to
// core c, accumulated in commit order (so values are bit-identical to a
// sequential CoreLoad fold over the same commits).
func (st *AnalysisState) RTLoad(c int) CoreLoad { return st.cores[c].rt }

// RTUtil returns the summed utilization of the real-time tasks on core c —
// the load metric of the partitioning heuristics.
func (st *AnalysisState) RTUtil(c int) float64 { return st.cores[c].rt.SumU }

// RTCount returns the number of real-time tasks committed to core c.
func (st *AnalysisState) RTCount(c int) int { return len(st.cores[c].rm) }

// rmInsertionIndex returns the RM-order insertion position for t: after every
// committed task with a strictly higher rate-monotonic priority and after
// equal (T, Name) keys, matching SortRateMonotonic's stable tie-break for a
// task appended last.
func (cs *coreState) rmInsertionIndex(t RTTask) int {
	lo, hi := 0, len(cs.rm)
	for lo < hi {
		mid := (lo + hi) / 2
		o := cs.rm[mid]
		if o.T < t.T || (o.T == t.T && o.Name <= t.Name) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rtResponse computes the RTA fixed point of a task with WCET c and deadline
// d against the committed tasks rm[:hi], with the trial task extra (when
// non-nil) interfering from RM position insertAt — the exact interference
// summation order the historical copy+sort path produced. The iteration is
// warm-started from seed (clamped up to c); any seed at or below the true
// fixed point yields the identical fixed point and verdicts. met stages the
// invocation's iteration count (count-only; never nil — callers pass the
// owning state's stage).
func (cs *coreState) rtResponse(met *AnalysisMetrics, c, d Time, hi, insertAt int, extra *RTTask, seed Time) (Time, bool, bool) {
	r := seed
	warm := r > c
	if r < c {
		r = c
	}
	for iter := 0; iter < MaxRTAIterations; iter++ {
		next := c
		for i := 0; i < insertAt; i++ {
			next += math.Ceil(r/cs.rm[i].T) * cs.rm[i].C
		}
		if extra != nil {
			next += math.Ceil(r/extra.T) * extra.C
		}
		for i := insertAt; i < hi; i++ {
			next += math.Ceil(r/cs.rm[i].T) * cs.rm[i].C
		}
		if next == r {
			met.observe(iter+1, warm)
			return r, r <= d, true
		}
		if next > d {
			met.observe(iter+1, warm)
			return next, false, true
		}
		r = next
	}
	met.observe(MaxRTAIterations, warm)
	return r, false, false
}

// TryAddRT reports whether core c would remain schedulable under exact RTA
// with t added, without committing anything. Only t itself (cold) and the
// committed tasks it would preempt (warm-started from their memoized
// response times) are re-analyzed; higher-priority tasks are unaffected by
// a lower-priority arrival.
func (st *AnalysisState) TryAddRT(c int, t RTTask) bool {
	cs := &st.cores[c]
	cs.trial.valid = false
	k := cs.rmInsertionIndex(t)
	rNew, ok, _ := cs.rtResponse(&st.met, t.C, t.D, k, k, nil, t.C)
	if !ok {
		return false
	}
	cs.trial.resp = cs.trial.resp[:0]
	for i := k; i < len(cs.rm); i++ {
		r, ok, _ := cs.rtResponse(&st.met, cs.rm[i].C, cs.rm[i].D, i, k, &t, cs.resp[i])
		if !ok {
			return false
		}
		cs.trial.resp = append(cs.trial.resp, r)
	}
	cs.trial.valid, cs.trial.task, cs.trial.k, cs.trial.rNew = true, t, k, rNew
	return true
}

// AddRT commits t to core c, updating the RM order, the memoized response
// times and the load aggregates. It reports whether the core remains
// schedulable; on false the state is left unchanged. Real-time tasks must be
// committed before any CommitSecurity on the same core.
func (st *AnalysisState) AddRT(c int, t RTTask) bool {
	cs := &st.cores[c]
	if cs.trial.valid && cs.trial.task == t {
		// The heuristics probe with TryAddRT and then commit the chosen
		// core; reuse that trial's analysis instead of repeating it.
		st.met.TrialReuses++
	} else if !st.TryAddRT(c, t) {
		return false
	}
	k := cs.trial.k
	cs.insertRT(k, t, cs.trial.rNew)
	copy(cs.resp[k+1:], cs.trial.resp)
	return true
}

// SeedRT records t on core c without any schedulability analysis — the bulk
// loading path for states built from an already-partitioned input (memoized
// response times start unknown and are derived on demand).
func (st *AnalysisState) SeedRT(c int, t RTTask) {
	cs := &st.cores[c]
	k := cs.rmInsertionIndex(t)
	cs.insertRT(k, t, 0)
	// The unanalyzed arrival interferes with every lower-priority task, so
	// their memoized response times (if any commits preceded this seed) are
	// stale lower bounds — still valid warm-start seeds, but no longer the
	// fixed points RTResponseTimes may report. Drop them back to unknown.
	for i := k + 1; i < len(cs.resp); i++ {
		cs.resp[i] = 0
	}
}

// insertRT places t at RM index k with memoized response time r (0 =
// unknown), appends it to the real-time prefix of the interferer list, the
// load fold and the arrival log, and invalidates the trial.
func (cs *coreState) insertRT(k int, t RTTask, r Time) {
	cs.trial.valid = false
	cs.rm = append(cs.rm, RTTask{})
	copy(cs.rm[k+1:], cs.rm[k:])
	cs.rm[k] = t
	cs.resp = append(cs.resp, 0)
	copy(cs.resp[k+1:], cs.resp[k:])
	cs.resp[k] = r
	cs.hp = append(cs.hp, InterferingTask{})
	copy(cs.hp[cs.nRT+1:], cs.hp[cs.nRT:])
	cs.hp[cs.nRT] = InterferingTask{C: t.C, T: t.T}
	cs.nRT++
	cs.rt.AddRT(t)
	cs.seq = append(cs.seq, t)
}

// RemoveRT evicts the first committed or seeded real-time task on core c
// equal to t (all fields) and cold-reseeds the core: the surviving real-time
// tasks are re-seeded in their original arrival order and the committed
// security interferers are re-appended in commit order. Every derived
// quantity — the load fold, the interference summation order, the response
// times re-derived on demand — is therefore bit-identical to a state that
// never saw t. All memoized response times on the core drop back to unknown
// (a removal shrinks fixed points, so warm seeds would no longer be
// from-below). It reports whether t was present; the state is unchanged when
// it was not.
func (st *AnalysisState) RemoveRT(c int, t RTTask) bool {
	cs := &st.cores[c]
	idx := -1
	for i := range cs.seq {
		if cs.seq[i] == t {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	cs.reseedRT = append(cs.reseedRT[:0], cs.seq[:idx]...)
	cs.reseedRT = append(cs.reseedRT, cs.seq[idx+1:]...)
	cs.reseedSec = append(cs.reseedSec[:0], cs.hp[cs.nRT:]...)
	cs.clear()
	for _, rt := range cs.reseedRT {
		st.SeedRT(c, rt)
	}
	cs.hp = append(cs.hp, cs.reseedSec...)
	return true
}

// CommitSecurity records a committed security task (WCET c, adapted period
// ts) as an interferer for every security task committed to the core later.
func (st *AnalysisState) CommitSecurity(core int, c, ts Time) {
	cs := &st.cores[core]
	cs.hp = append(cs.hp, InterferingTask{C: c, T: ts})
}

// SecurityResponseTime computes the exact ceiling-based response time of a
// security task (WCET c, deadline/period d) against core's interferer list —
// every seeded real-time task plus every committed security task, iterated
// in seed/commit order — under the ResponseTimeFull divergence contract.
func (st *AnalysisState) SecurityResponseTime(core int, c, d Time) (r Time, schedulable, converged bool) {
	return ExactSecurityResponseTimeFull(c, d, st.cores[core].hp)
}

// LinearSecurityBound evaluates the Eq. (5)+(6) left side c + sum (1+ts/T)*C
// over core's interferer list, mirroring LinearSecurityResponseBound.
func (st *AnalysisState) LinearSecurityBound(core int, c, ts Time) Time {
	return LinearSecurityResponseBound(c, ts, st.cores[core].hp)
}

// RTResponseTimes appends the memoized response time of every committed
// real-time task on core c (in RM order) to buf and returns it, deriving any
// still-unknown entries. Tasks past their deadline or non-convergent report
// the last iterate.
func (st *AnalysisState) RTResponseTimes(c int, buf []Time) []Time {
	cs := &st.cores[c]
	for i := range cs.rm {
		if cs.resp[i] == 0 {
			r, _, _ := cs.rtResponse(&st.met, cs.rm[i].C, cs.rm[i].D, i, i, nil, cs.resp[i])
			cs.resp[i] = r
		}
		buf = append(buf, cs.resp[i])
	}
	return buf
}

// RTSchedulable reports whether every committed or seeded real-time task on
// core c meets its deadline under exact RTA, memoizing response times along
// the way.
func (st *AnalysisState) RTSchedulable(c int) bool {
	cs := &st.cores[c]
	for i := range cs.rm {
		r, ok, _ := cs.rtResponse(&st.met, cs.rm[i].C, cs.rm[i].D, i, i, nil, cs.resp[i])
		if !ok {
			return false
		}
		cs.resp[i] = r
	}
	return true
}
