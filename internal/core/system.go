// Package core implements the paper's contribution: allocation of sporadic
// security tasks onto a partitioned multicore real-time system with period
// adaptation — the HYDRA heuristic (Algorithm 1), the SingleCore baseline
// (dedicated security core), and the OPT exhaustive baseline (enumeration of
// all M^NS assignments with per-assignment joint period optimization).
//
// Security tasks run at priorities strictly below every real-time task
// ("opportunistic execution"); among themselves they are prioritized by
// smaller TMax (Sec. II-C). The schedulability constraint is the linear
// interference bound of Eq. (5)–(6); the quality metric is the cumulative
// weighted tightness of Eq. (3).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"hydra/internal/partition"
	"hydra/internal/rts"
)

// Input is a fully specified allocation problem: a platform of M cores, the
// real-time tasks with their (given, immutable) partition, and the security
// tasks to place.
//
// An Input lazily caches analysis state derived purely from its fields (the
// per-core load aggregates and the security priority order), so the several
// schemes and verification passes an experiment cell or serving request runs
// against the same problem derive them once instead of re-sorting and
// re-folding per call. The fields must therefore not be mutated once any
// scheme has run; build a new Input instead.
type Input struct {
	M           int
	RT          []rts.RTTask
	RTPartition []int // RTPartition[i] is the core of RT[i]
	Sec         []rts.SecurityTask

	loadsOnce sync.Once
	loads     []rts.CoreLoad // cached RTLoads, read-only after loadsOnce
	orderOnce sync.Once
	order     []int // cached secOrder, read-only after orderOnce
	validOnce sync.Once
	validErr  error // cached Validate verdict
}

// NewInput bundles and validates an allocation problem.
func NewInput(m int, rt []rts.RTTask, part []int, sec []rts.SecurityTask) (*Input, error) {
	in := &Input{M: m, RT: rt, RTPartition: part, Sec: sec}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// NewOrderedInput is NewInput for security tasks already listed from highest
// to lowest analysis priority — the commit order of an online system — in
// place of the TMax order (SecurityPriorityOrder) every scheme uses. Verify
// and VerifyExact then analyze the tasks in the listed order.
func NewOrderedInput(m int, rt []rts.RTTask, part []int, sec []rts.SecurityTask) (*Input, error) {
	in, err := NewInput(m, rt, part, sec)
	if err != nil {
		return nil, err
	}
	in.order = make([]int, len(sec))
	for i := range in.order {
		in.order[i] = i
	}
	return in, nil
}

// Validate checks structural consistency of the input. The verdict is
// cached: every scheme an experiment cell or serving request runs against
// the same Input re-checks it, and the fields are immutable once in use.
func (in *Input) Validate() error {
	in.validOnce.Do(func() { in.validErr = in.validate() })
	return in.validErr
}

func (in *Input) validate() error {
	if in.M <= 0 {
		return fmt.Errorf("core: need at least one core, got %d", in.M)
	}
	if len(in.RT) != len(in.RTPartition) {
		return fmt.Errorf("core: %d real-time tasks but %d partition entries", len(in.RT), len(in.RTPartition))
	}
	for i, c := range in.RTPartition {
		if c < 0 || c >= in.M {
			return fmt.Errorf("core: RT task %d on invalid core %d of %d", i, c, in.M)
		}
	}
	return rts.ValidateAll(in.RT, in.Sec)
}

// sharedRTLoads returns the cached Eq. 5 aggregates of the real-time tasks
// per core. The returned slice is shared and must not be mutated; callers
// that commit security load on top of it copy first (see copyRTLoads).
func (in *Input) sharedRTLoads() []rts.CoreLoad {
	in.loadsOnce.Do(func() {
		loads := make([]rts.CoreLoad, in.M)
		for i, c := range in.RTPartition {
			loads[c].AddRT(in.RT[i])
		}
		in.loads = loads
	})
	return in.loads
}

// copyRTLoads copies the cached per-core aggregates into dst (grown as
// needed) and returns it — the mutable working set of the allocation loops.
func (in *Input) copyRTLoads(dst []rts.CoreLoad) []rts.CoreLoad {
	shared := in.sharedRTLoads()
	if cap(dst) < len(shared) {
		dst = make([]rts.CoreLoad, len(shared))
	}
	dst = dst[:len(shared)]
	copy(dst, shared)
	return dst
}

// RTLoads returns the Eq. 5 aggregates of the real-time tasks per core. The
// returned slice is the caller's to mutate.
func (in *Input) RTLoads() []rts.CoreLoad {
	return in.copyRTLoads(nil)
}

// SecurityPriorityOrder returns sec indices sorted from highest to lowest
// priority (ascending TMax, ties by name then index — Sec. II-C): the
// processing order of every allocation scheme. It is exported because the
// online admission layer commits its cold allocations in exactly this order
// to keep its load folds bit-identical to the scheme's run — a drifting copy
// of the comparator would silently break that contract.
func SecurityPriorityOrder(sec []rts.SecurityTask) []int {
	order := make([]int, len(sec))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		sa, sb := &sec[a], &sec[b]
		if c := cmp.Compare(sa.TMax, sb.TMax); c != 0 {
			return c
		}
		if c := strings.Compare(sa.Name, sb.Name); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// secOrder returns the cached SecurityPriorityOrder of in.Sec. The returned
// slice is shared: callers must treat it as read-only.
func (in *Input) secOrder() []int {
	in.orderOnce.Do(func() {
		if in.order != nil {
			return // pre-seeded (NewOrderedInput, or EffectiveInput sharing the parent's order)
		}
		in.order = SecurityPriorityOrder(in.Sec)
	})
	return in.order
}

// Result is the outcome of an allocation scheme. All slices are indexed by
// the *input* order of Input.Sec.
type Result struct {
	Schedulable bool
	Scheme      string     // registry name of the producing Allocator ("hydra-gp", "opt", ...)
	Assignment  []int      // core per security task
	Periods     []rts.Time // adapted period per security task
	Tightness   []float64  // eta_s = TDes/T per task
	Cumulative  float64    // sum of weight * eta over all tasks (Eq. 3)
	Reason      string     // populated when Schedulable is false
	// RTPartition records the real-time partition the scheme actually solved
	// against. Most schemes keep the caller's partition; schemes that
	// repartition (SingleCore evicts real-time tasks from the dedicated
	// security core) record their own here so verification and simulation
	// analyze the problem that was really solved. See EffectiveInput.
	RTPartition []int
}

// newInfeasible builds an unschedulable result with a diagnostic reason.
func newInfeasible(scheme, reason string) *Result {
	return &Result{Schedulable: false, Scheme: scheme, Reason: reason}
}

// finalize computes tightness metrics from assignment and periods.
func finalize(in *Input, scheme string, assign []int, periods []rts.Time) *Result {
	r := &Result{
		Schedulable: true,
		Scheme:      scheme,
		Assignment:  assign,
		Periods:     periods,
		Tightness:   make([]float64, len(in.Sec)),
		RTPartition: in.RTPartition,
	}
	for i, s := range in.Sec {
		r.Tightness[i] = s.Tightness(periods[i])
		r.Cumulative += s.EffectiveWeight() * r.Tightness[i]
	}
	return r
}

// EffectiveInput returns the allocation problem a result was actually solved
// against: the given input with the result's recorded real-time partition (if
// any) substituted. Schemes that keep the caller's partition return the input
// unchanged; repartitioning schemes like SingleCore return a copy carrying
// their own partition.
func EffectiveInput(in *Input, r *Result) *Input {
	if r == nil || len(r.RTPartition) != len(in.RT) {
		return in
	}
	out := &Input{M: in.M, RT: in.RT, RTPartition: r.RTPartition, Sec: in.Sec}
	// The security priority order depends only on Sec, which is unchanged:
	// seed it from the parent before out escapes, so verifying a
	// self-partitioning result does not re-sort per call. The load and
	// validation caches depend on the substituted partition and stay lazy.
	out.order = in.secOrder()
	return out
}

// verifiable returns EffectiveInput(in, r) once the checks Verify and
// VerifyExact share pass: r is schedulable, covers every security task, and
// its effective partition puts every real-time task on a core in [0, M),
// so that no per-core state is indexed out of range.
func verifiable(in *Input, r *Result) (*Input, error) {
	in = EffectiveInput(in, r)
	if !r.Schedulable {
		return nil, fmt.Errorf("core: cannot verify an unschedulable result (%s)", r.Reason)
	}
	if len(r.Assignment) != len(in.Sec) || len(r.Periods) != len(in.Sec) {
		return nil, fmt.Errorf("core: result covers %d/%d tasks, want %d", len(r.Assignment), len(r.Periods), len(in.Sec))
	}
	for i, c := range in.RTPartition {
		if c < 0 || c >= in.M {
			return nil, fmt.Errorf("core: real-time task %q on invalid core %d", in.RT[i].Name, c)
		}
	}
	return in, nil
}

// Verify checks that a schedulable result satisfies every model constraint:
// exactly one core per task, periods within [TDes, TMax], and the Eq. (6)
// schedulability test Cs + I_s <= Ts on every core with the linear
// interference of Eq. (5) from real-time tasks and higher-priority security
// tasks, in the input's priority order. Results carrying their own RT
// partition (see Result.RTPartition) are verified against it. It runs no
// exact RTA: the real-time side is VerifyExact's, or partition.Validate's. It
// returns nil for a valid result.
func Verify(in *Input, r *Result) error {
	in, err := verifiable(in, r)
	if err != nil {
		return err
	}
	for i, s := range in.Sec {
		if c := r.Assignment[i]; c < 0 || c >= in.M {
			return fmt.Errorf("core: task %q on invalid core %d", s.Name, c)
		}
		const tol = 1e-6
		if !(r.Periods[i] >= s.TDes*(1-tol) && r.Periods[i] <= s.TMax*(1+tol)) {
			return fmt.Errorf("core: task %q period %g outside [%g, %g]", s.Name, r.Periods[i], s.TDes, s.TMax)
		}
	}
	loads := in.sharedRTLoads() // read-only; per-core copies taken below
	order := in.secOrder()
	// Walk in priority order, checking each task against the interference of
	// real-time tasks plus already-walked (higher-priority) security tasks.
	sc := acquireScratch()
	defer releaseScratch(sc)
	sc.committed = zeroLoads(sc.committed, in.M)
	committed := sc.committed
	for _, i := range order {
		s := in.Sec[i]
		c := r.Assignment[i]
		load := loads[c]
		load.SumC += committed[c].SumC
		load.SumU += committed[c].SumU
		ts := r.Periods[i]
		lhs := s.C + load.LinearInterference(ts)
		if lhs > ts*(1+1e-6) {
			return fmt.Errorf("core: task %q violates Eq. 6 on core %d: %g > %g", s.Name, c, lhs, ts)
		}
		committed[c].AddPeriodic(s.C, ts)
	}
	return nil
}

// PartitionForHydra partitions the real-time tasks across all M cores with
// the given heuristic — the RT-side preparation step the paper assumes for
// HYDRA and OPT (Sec. II-A / IV-B).
func PartitionForHydra(rt []rts.RTTask, m int, h partition.Heuristic) ([]int, error) {
	p, err := partition.PartitionRT(rt, m, h)
	if err != nil {
		return nil, err
	}
	return p.CoreOf, nil
}
