// Package online hosts long-lived allocation systems whose tasksets churn
// while the system runs — the serving-side counterpart of the paper's one-shot
// design-space question "can this static taskset host these security tasks?".
//
// A System owns a committed allocation (real-time partition, security
// assignments and adapted periods, the latter kept once, in commit order)
// plus a per-core incremental rts.AnalysisState of its real-time tasks, so
// task arrival is an O(M) admission trial on warm state instead of a cold
// full allocation:
//
//   - AddSecurity runs the registered HYDRA policy's per-core period
//     adaptation against the committed load folds and commits to the winning
//     core, or rejects with a structured per-core Rejection;
//   - AddRT places a real-time task with the system's partition heuristic
//     under exact-RTA admission, additionally requiring every committed
//     security task on the destination core to keep meeting its committed
//     period (their periods are contracts; tightly adapted tasks make the
//     core RT-frozen until a Reallocate re-tunes them);
//   - Remove retires a task by name; real-time removals cold-reseed the
//     affected core through rts.AnalysisState.RemoveRT so the surviving
//     state is bit-identical to one that never saw the task;
//   - Reallocate is the escape hatch: a full re-run of the system's scheme
//     on the current taskset, byte-identical to a cold allocation of that
//     taskset, replacing the committed state only on success.
//
// Incrementally admitted security tasks take analysis priority in commit
// order (each new arrival is tested against the interference of everything
// already committed, leaving committed tasks untouched) — sound under
// Eq. (5)/(6) for the commit-order priority assignment, but possibly looser
// than the TMax-priority order a cold run uses; Reallocate recovers that
// tightness. Every admit/reject/remove/reallocate decision is recorded in a
// monotonically versioned event log.
//
// All System methods are safe for concurrent use; mutations serialize on a
// per-system lock.
package online

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/tasksetio"
)

// incrementalSchemes maps the allocation schemes a System can host onto the
// HYDRA options their incremental admission step mirrors. Schemes outside
// this set (opt's exhaustive search, singlecore's repartitioning, the -np
// blocking variants whose terms are global over lower-priority tasks) have no
// sound per-task incremental counterpart and are rejected at creation.
var incrementalSchemes = map[string]core.HydraOptions{
	"hydra":                {},
	"hydra-gp":             {UseGP: true},
	"hydra-first-feasible": {Policy: core.FirstFeasible},
	"hydra-least-loaded":   {Policy: core.LeastLoaded},
}

// SupportedSchemes returns the scheme names a System can host, sorted.
func SupportedSchemes() []string {
	out := make([]string, 0, len(incrementalSchemes))
	for name := range incrementalSchemes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TaskKind distinguishes the two task populations of a system.
type TaskKind string

const (
	// KindRT marks a real-time task.
	KindRT TaskKind = "rt"
	// KindSecurity marks a security task.
	KindSecurity TaskKind = "security"
)

// PlacedRT is one committed real-time task.
type PlacedRT struct {
	Task rts.RTTask
	Core int
	text string // Task's number text, formatted by the first snapshot
}

// Text returns tasksetio.PlacedRTText of the placement: formatted once, by
// the first snapshot that copied it, or now for a placement none copied.
func (p PlacedRT) Text() string {
	if p.text == "" {
		return tasksetio.PlacedRTText(p.Task)
	}
	return p.text
}

// PlacedSec is one committed security task with its adapted period.
type PlacedSec struct {
	Task   rts.SecurityTask
	Core   int
	Period rts.Time
	text   string // number text of Task and Period, as PlacedRT's
}

// Tightness returns the achieved eta = TDes/period of the placement.
func (p PlacedSec) Tightness() float64 { return p.Task.Tightness(p.Period) }

// Text returns tasksetio.PlacedSecText of the placement, as PlacedRT.Text.
func (p PlacedSec) Text() string {
	if p.text == "" {
		return tasksetio.PlacedSecText(p.Task, p.Period)
	}
	return p.text
}

// Placement reports a successful admission.
type Placement struct {
	Core      int
	Period    rts.Time // security tasks only (0 for real-time)
	Tightness float64  // security tasks only
	Version   uint64   // the admit event's version
}

// Removed reports a successful removal.
type Removed struct {
	Kind    TaskKind
	Core    int
	Version uint64
}

// CoreVerdict is one core's reason for refusing a task.
type CoreVerdict struct {
	Core   int    `json:"core"`
	Reason string `json:"reason"`
}

// Rejection is the structured no-core-admits error: one verdict per core, in
// core order. It satisfies error so callers can errors.As it out of the
// admission path.
type Rejection struct {
	Task    string        `json:"task"`
	Kind    TaskKind      `json:"kind"`
	Version uint64        `json:"version"` // the reject event's version
	Cores   []CoreVerdict `json:"cores"`
}

// Error renders the rejection as a one-line summary.
func (r *Rejection) Error() string {
	parts := make([]string, len(r.Cores))
	for i, v := range r.Cores {
		parts[i] = fmt.Sprintf("core %d: %s", v.Core, v.Reason)
	}
	return fmt.Sprintf("online: no core admits %s task %q (%s)", r.Kind, r.Task, strings.Join(parts, "; "))
}

// ErrNotFound is returned by Remove for unknown task names.
var ErrNotFound = fmt.Errorf("online: no such task")

// ErrDuplicateName is returned when an added task's name is already committed.
var ErrDuplicateName = fmt.Errorf("online: task name already in use")

// System is one long-lived allocation system. Create with NewSystem.
type System struct {
	id        string
	scheme    string
	opts      core.HydraOptions
	heuristic partition.Heuristic
	m         int

	mu      sync.Mutex
	st      *rts.AnalysisState // long-lived exact-RTA state of the RT tasks
	rt      []PlacedRT         // commit order
	sec     []PlacedSec        // commit order == analysis priority order
	names   map[string]TaskKind
	cursor  int // NextFit cursor for RT placements
	version uint64
	events  []Event
	changed chan struct{}
	onEvent func(Event)    // registry counter sink; may be nil
	loads   []rts.CoreLoad // per-core folds, scratch of admitSecurityLocked

	// reallocAfter is the auto-reallocate policy knob: after reallocAfter
	// consecutive rejections the system runs Reallocate once and retries the
	// rejected admission (0 = off). rejects is the running rejection streak.
	reallocAfter int
	rejects      int
}

// NewSystem builds a system by running the scheme cold on the initial
// taskset: the real-time tasks are partitioned with the heuristic — or
// placed on the caller's pinned partition (part[i] = core of rt[i]; nil
// leaves partitioning to the heuristic), checked for exact-RTA
// schedulability — the security tasks allocated by the registered scheme,
// and the committed state seeded from that allocation. A pinned partition
// seeds creation only: the system owns every placement afterwards, and
// Reallocate re-partitions with the heuristic. The initial taskset may be
// empty. Task names must be unique across both populations (removal is by
// name).
func NewSystem(id, scheme string, h partition.Heuristic, m int, rt []rts.RTTask, part []int, sec []rts.SecurityTask) (*System, error) {
	s, err := newSystem(id, scheme, h, m, rt, sec)
	if err != nil {
		return nil, err
	}
	if err := s.commitColdAllocation(rt, sec, part); err != nil {
		return nil, err
	}
	s.logEvent(Event{Type: EventCreate, Core: -1,
		Reason: fmt.Sprintf("scheme %s, %d cores, %d rt + %d security tasks", s.scheme, m, len(rt), len(sec))})
	return s, nil
}

// newSystem is the setup NewSystem and RestoreSystem share: the scheme
// default and lookup, the core-count and task checks, and the name index
// over both populations (names must be unique). The system holds no task.
func newSystem(id, scheme string, h partition.Heuristic, m int, rt []rts.RTTask, sec []rts.SecurityTask) (*System, error) {
	if scheme == "" {
		scheme = "hydra"
	}
	opts, ok := incrementalSchemes[scheme]
	if !ok {
		return nil, fmt.Errorf("online: scheme %q has no incremental admission step (supported: %s)",
			scheme, strings.Join(SupportedSchemes(), ", "))
	}
	if m <= 0 {
		return nil, fmt.Errorf("online: need at least one core, got %d", m)
	}
	if err := rts.ValidateAll(rt, sec); err != nil {
		return nil, err
	}
	names := make(map[string]TaskKind, len(rt)+len(sec))
	for _, t := range rt {
		if _, dup := names[t.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateName, t.Name)
		}
		names[t.Name] = KindRT
	}
	for _, t := range sec {
		if _, dup := names[t.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateName, t.Name)
		}
		names[t.Name] = KindSecurity
	}
	return &System{id: id, scheme: scheme, opts: opts, heuristic: h, m: m,
		st: rts.NewAnalysisState(m), names: names, changed: make(chan struct{})}, nil
}

// commitColdAllocation runs the scheme cold on (rt, sec) and replaces the
// committed state with its outcome, placing the real-time tasks on pinned
// (checked by partition.Partition.Validate) when non-nil, else on a fresh
// heuristic partition. The caller holds no lock (creation) or the system
// lock (Reallocate); on error the state is left untouched.
func (s *System) commitColdAllocation(rt []rts.RTTask, sec []rts.SecurityTask, pinned []int) error {
	var part []int
	switch {
	case pinned != nil:
		// Heuristic partitions are exact-RTA-admitted by construction; a
		// pinned one must be checked before it becomes committed state.
		p := partition.Partition{M: s.m, CoreOf: pinned}
		if err := p.Validate(rt); err != nil {
			return fmt.Errorf("online: pinned %w", err)
		}
		part = pinned
	case len(rt) > 0:
		p, err := partition.PartitionRT(rt, s.m, s.heuristic)
		if err != nil {
			return err
		}
		part = p.CoreOf
	}
	var res *core.Result
	if len(sec) > 0 {
		in, err := core.NewInput(s.m, rt, part, sec)
		if err != nil {
			return err
		}
		res = core.Hydra(in, s.opts)
		if !res.Schedulable {
			return fmt.Errorf("online: scheme %s rejects the taskset: %s", s.scheme, res.Reason)
		}
	}

	s.st.Reset(s.m)
	s.rt = s.rt[:0]
	for i, t := range rt {
		s.st.SeedRT(part[i], t)
		s.rt = append(s.rt, PlacedRT{Task: t, Core: part[i]})
	}
	s.sec = s.sec[:0]
	if res != nil {
		// Commit in the scheme's own processing order (core.
		// SecurityPriorityOrder — ascending TMax, ties by name then index),
		// so the commit-order load folds match the cold run's bit for bit.
		for _, i := range core.SecurityPriorityOrder(sec) {
			s.sec = append(s.sec, PlacedSec{Task: sec[i], Core: res.Assignment[i], Period: res.Periods[i]})
		}
	}
	s.cursor = 0
	return nil
}

// SetEventSink attaches a decision-log sink (the registry counter feed). It
// must be attached before the system is shared across goroutines; events
// logged earlier (the create event, replayed decisions) are not re-delivered.
func (s *System) SetEventSink(fn func(Event)) {
	s.mu.Lock()
	s.onEvent = fn
	s.mu.Unlock()
}

// SetReallocateAfter sets the auto-reallocate policy: after n consecutive
// rejections the system reallocates once (re-running the scheme cold, which
// re-tunes every adapted security period) and retries the rejected admission.
// Zero (the default) disables the policy. Commit-order analysis priorities
// and frozen period contracts are both looser than a cold run, so an arrival
// the warm state rejects can be admissible after a reallocation — this knob
// closes that loop without operator action.
func (s *System) SetReallocateAfter(n int) {
	s.mu.Lock()
	if n < 0 {
		n = 0
	}
	s.reallocAfter = n
	s.mu.Unlock()
}

// ReallocateAfter returns the auto-reallocate threshold (0 = off).
func (s *System) ReallocateAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reallocAfter
}

// Has reports whether a task with the given name is committed.
func (s *System) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.names[name]
	return ok
}

// ID returns the system id.
func (s *System) ID() string { return s.id }

// Scheme returns the registered scheme name the system runs.
func (s *System) Scheme() string { return s.scheme }

// Heuristic returns the real-time partition heuristic.
func (s *System) Heuristic() partition.Heuristic { return s.heuristic }

// M returns the platform size.
func (s *System) M() int { return s.m }

// AddSecurity try-admits a security task on the committed state: the
// scheme's period adaptation runs against every core's committed fold and
// the task commits to the core its policy scores best, at analysis priority
// below everything already committed. On success the placement is returned;
// when no core admits, the returned error is a *Rejection carrying one
// verdict per core.
func (s *System) AddSecurity(t rts.SecurityTask) (Placement, error) {
	return s.admit(t.Name, KindSecurity, t.Validate(), func() (Placement, *Rejection, error) { return s.admitSecurityLocked(t) })
}

// AddRT try-admits a real-time task: the system's partition heuristic picks
// among the cores that (a) stay exact-RTA schedulable with t added and
// (b) keep every committed security task within its committed period under
// the grown interference. When no core qualifies the returned error is a
// *Rejection.
func (s *System) AddRT(t rts.RTTask) (Placement, error) {
	return s.admit(t.Name, KindRT, t.Validate(), func() (Placement, *Rejection, error) { return s.admitRTLocked(t) })
}

// admit is the admission path AddRT and AddSecurity share. A task that
// failed validation (validateErr) or reuses a committed name is refused
// before anything is logged. Otherwise try runs one admission trial under
// the lock: its error passes through, and a rejection is logged once and
// returned with its event version. The rejection grows the streak of the
// ReallocateAfter policy; once the streak reaches the threshold it resets,
// the system reallocates (the cold re-run re-tunes every adapted security
// period and re-derives analysis priorities) and try runs once more. A
// failed retry is not logged again: the caller gets the first rejection.
func (s *System) admit(name string, kind TaskKind, validateErr error, try func() (Placement, *Rejection, error)) (Placement, error) {
	if validateErr != nil {
		return Placement{}, validateErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Surface the long-lived state's staged RTA counters after each batch;
	// runs under the lock (defers are LIFO).
	defer s.st.FlushMetrics()
	if _, dup := s.names[name]; dup {
		return Placement{}, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	p, rej, err := try()
	if err != nil || rej == nil {
		return p, err
	}
	rej.Version = s.logEvent(Event{Type: EventReject, Task: name, Kind: kind, Core: -1, Reason: rej.Error()})
	s.rejects++
	if s.reallocAfter <= 0 || s.rejects < s.reallocAfter {
		return Placement{}, rej
	}
	s.rejects = 0
	// A failed cold run (bin packing is not monotone) keeps the state; the
	// streak was reset, so the next rejection starts over.
	if s.reallocateLocked() == nil {
		if p, retryRej, err := try(); err == nil && retryRej == nil {
			return p, nil
		}
	}
	return Placement{}, rej
}

// admitSecurityLocked runs one security admission trial on the committed
// state — Algorithm 1's per-task step, HydraOptions.Place, on the commit-order
// load folds — committing and logging the admit on success. On failure it
// returns an unlogged Rejection (the caller decides whether to log it — a
// retry after an auto-reallocate must not double-log); the error return is
// reserved for an unknown policy. Callers hold s.mu.
func (s *System) admitSecurityLocked(t rts.SecurityTask) (Placement, *Rejection, error) {
	// Fold each core's committed Eq. 5 load: the real-time load (arrival
	// order, kept by AnalysisState), then every committed security task onto
	// its core in commit order. One pass sums each core in the order a fold
	// of that core alone would, so the floats are the same bits.
	loads := s.loads[:0]
	for c := 0; c < s.m; c++ {
		loads = append(loads, s.st.RTLoad(c))
	}
	for _, p := range s.sec {
		loads[p.Core].AddPeriodic(p.Task.C, p.Period)
	}
	s.loads = loads
	var verdicts []CoreVerdict
	c, period, err := s.opts.Place(t, loads, func(c int, _ rts.Time, ok bool) {
		if !ok {
			verdicts = append(verdicts, CoreVerdict{Core: c, Reason: fmt.Sprintf(
				"no feasible period in [%g, %g] against committed load (sum C %.4g ms, util %.4g)",
				t.TDes, t.TMax, loads[c].SumC, loads[c].SumU)})
		}
	})
	if err != nil {
		return Placement{}, nil, fmt.Errorf("online: %w", err)
	}
	if c < 0 {
		return Placement{}, &Rejection{Task: t.Name, Kind: KindSecurity, Cores: verdicts}, nil
	}
	s.sec = append(s.sec, PlacedSec{Task: t, Core: c, Period: period})
	s.names[t.Name] = KindSecurity
	s.rejects = 0
	v := s.logEvent(Event{Type: EventAdmit, Task: t.Name, Kind: KindSecurity, Core: c,
		PeriodMS: period, Tightness: t.Tightness(period)})
	return Placement{Core: c, Period: period, Tightness: t.Tightness(period), Version: v}, nil, nil
}

// admitRTLocked runs one real-time admission trial on the committed state,
// committing and logging the admit on success. On a no-core-admits outcome
// it returns an unlogged Rejection; the error return is reserved for
// heuristic misconfiguration and internal inconsistencies. Callers hold s.mu.
func (s *System) admitRTLocked(t rts.RTTask) (Placement, *Rejection, error) {
	verdicts := make([]CoreVerdict, s.m)
	admits := func(c int) bool {
		if !s.st.TryAddRT(c, t) {
			verdicts[c] = CoreVerdict{Core: c, Reason: "real-time tasks would miss a deadline under exact RTA"}
			return false
		}
		if victim, ok := s.securityStaysFeasible(c, t); !ok {
			verdicts[c] = CoreVerdict{Core: c, Reason: fmt.Sprintf(
				"committed security task %q would miss its period %g ms (reallocate to re-tune periods)",
				victim.Task.Name, victim.Period)}
			return false
		}
		return true
	}
	chosen, err := partition.ChooseCore(s.heuristic, s.m, admits, s.st.RTUtil, &s.cursor)
	if err != nil {
		return Placement{}, nil, err
	}
	if chosen < 0 {
		rej := &Rejection{Task: t.Name, Kind: KindRT}
		for c := 0; c < s.m; c++ {
			if verdicts[c].Reason != "" {
				rej.Cores = append(rej.Cores, verdicts[c])
			}
		}
		return Placement{}, rej, nil
	}
	if !s.st.AddRT(chosen, t) {
		return Placement{}, nil, fmt.Errorf("online: internal: core %d admitted task %q on trial but refused the commit", chosen, t.Name)
	}
	s.rt = append(s.rt, PlacedRT{Task: t, Core: chosen})
	s.names[t.Name] = KindRT
	s.rejects = 0
	v := s.logEvent(Event{Type: EventAdmit, Task: t.Name, Kind: KindRT, Core: chosen})
	return Placement{Core: chosen, Version: v}, nil, nil
}

// securityStaysFeasible checks Eq. (6) for every committed security task on
// core c with the real-time load grown by t, walking the commit-order fold.
// It returns the first violated placement when the check fails.
func (s *System) securityStaysFeasible(c int, t rts.RTTask) (PlacedSec, bool) {
	load := s.st.RTLoad(c)
	load.AddRT(t)
	const tol = 1e-6
	for i := range s.sec {
		if s.sec[i].Core != c {
			continue
		}
		ts := s.sec[i].Period
		if s.sec[i].Task.C+load.LinearInterference(ts) > ts*(1+tol) {
			return s.sec[i], false
		}
		load.AddPeriodic(s.sec[i].Task.C, ts)
	}
	return PlacedSec{}, true
}

// Remove retires the named task. Real-time removals evict and cold-reseed
// the affected core's analysis state; security removals splice the task out
// of the commit-order list, which is all the admission folds read (later
// tasks keep their commit order and their — now looser — period contracts).
// It returns ErrNotFound for unknown names.
func (s *System) Remove(name string) (Removed, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.st.FlushMetrics()
	kind, ok := s.names[name]
	if !ok {
		return Removed{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	var corec int
	switch kind {
	case KindRT:
		for i := range s.rt {
			if s.rt[i].Task.Name == name {
				corec = s.rt[i].Core
				if !s.st.RemoveRT(corec, s.rt[i].Task) {
					return Removed{}, fmt.Errorf("online: internal: task %q missing from core %d analysis state", name, corec)
				}
				s.rt = append(s.rt[:i], s.rt[i+1:]...)
				break
			}
		}
	case KindSecurity:
		for i := range s.sec {
			if s.sec[i].Task.Name == name {
				corec = s.sec[i].Core
				s.sec = append(s.sec[:i], s.sec[i+1:]...)
				break
			}
		}
	}
	delete(s.names, name)
	v := s.logEvent(Event{Type: EventRemove, Task: name, Kind: kind, Core: corec})
	return Removed{Kind: kind, Core: corec, Version: v}, nil
}

// Reallocate re-runs the system's scheme from scratch on the current
// taskset — the escape hatch when incremental admission rejects (commit-order
// priorities and frozen period contracts are both looser than a cold run).
// On success the committed state is replaced by the cold allocation, which is
// byte-identical to allocating the same taskset on a fresh system; on
// failure (the heuristics can reject a taskset whose committed state is
// feasible — bin packing is not monotone) the committed state is untouched.
func (s *System) Reallocate() (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.st.FlushMetrics()
	if err := s.reallocateLocked(); err != nil {
		return Snapshot{}, err
	}
	return s.snapshotLocked(), nil
}

// reallocateLocked re-runs the scheme cold on the current taskset and logs
// the outcome; callers hold s.mu. A successful reallocation resets the
// rejection streak.
func (s *System) reallocateLocked() error {
	rt, sec := Snapshot{RT: s.rt, Sec: s.sec}.Tasks()
	if err := s.commitColdAllocation(rt, sec, nil); err != nil {
		s.logEvent(Event{Type: EventReallocateReject, Core: -1, Reason: err.Error()})
		return fmt.Errorf("online: reallocate: %w (committed state unchanged)", err)
	}
	s.rejects = 0
	s.logEvent(Event{Type: EventReallocate, Core: -1,
		Reason: fmt.Sprintf("%d rt + %d security tasks, cumulative tightness %.6g", len(s.rt), len(s.sec), s.cumulativeLocked())})
	return nil
}

// cumulativeLocked sums weight * tightness over the committed security tasks
// (Eq. 3); callers hold s.mu.
func (s *System) cumulativeLocked() float64 {
	var sum float64
	for i := range s.sec {
		sum += s.sec[i].Task.EffectiveWeight() * s.sec[i].Tightness()
	}
	return sum
}

// WeightSum returns Σ ω over the committed security tasks, the bound on the
// cumulative tightness Σ ω·η (η ≤ 1).
func (s *System) WeightSum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for i := range s.sec {
		sum += s.sec[i].Task.EffectiveWeight()
	}
	return sum
}

// Snapshot is a point-in-time copy of a system's committed state: its
// creation parameters, the placements in commit order and every
// decision-affecting counter (the event version, the NextFit cursor, the
// auto-reallocate rejection streak). It is what reads render, what a
// persistence snapshot stores, and what RestoreSystem rebuilds a system from.
// A placement keeps its fields' number text: build a changed one anew.
type Snapshot struct {
	ID           string
	Scheme       string
	Heuristic    partition.Heuristic
	M            int
	Version      uint64
	Cursor       int
	RejectStreak int
	RT           []PlacedRT
	Sec          []PlacedSec
	// Cumulative is the Eq. 3 weighted tightness over the committed
	// security tasks.
	Cumulative float64
}

// Snapshot returns a copy of the committed state.
func (s *System) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked copies the committed state, keeping each placement's text
// first: placements are replaced, never edited, so a text stays right.
func (s *System) snapshotLocked() Snapshot {
	for i := range s.rt {
		s.rt[i].text = s.rt[i].Text()
	}
	for i := range s.sec {
		s.sec[i].text = s.sec[i].Text()
	}
	return Snapshot{
		ID:           s.id,
		Scheme:       s.scheme,
		Heuristic:    s.heuristic,
		M:            s.m,
		Version:      s.version,
		Cursor:       s.cursor,
		RejectStreak: s.rejects,
		RT:           append([]PlacedRT(nil), s.rt...),
		Sec:          append([]PlacedSec(nil), s.sec...),
		Cumulative:   s.cumulativeLocked(),
	}
}

// Tasks returns the committed taskset, each population in commit order.
func (snap Snapshot) Tasks() ([]rts.RTTask, []rts.SecurityTask) {
	rt := make([]rts.RTTask, len(snap.RT))
	for i, p := range snap.RT {
		rt[i] = p.Task
	}
	sec := make([]rts.SecurityTask, len(snap.Sec))
	for i, p := range snap.Sec {
		sec[i] = p.Task
	}
	return rt, sec
}

// RestoreSystem rebuilds a System from a snapshot without re-running any
// allocation: the analysis state is re-seeded from the committed placements
// in commit order — the same order an uninterrupted process maintains
// through its admissions and cold-reseeding removals — so every future
// decision (admit verdicts, period adaptations, Reallocate outcomes) and
// every future event version is identical to the never-restarted process's.
// A snapshot that fails Verify is refused. No event is logged; the counters
// resume where the snapshot left them, and Cumulative is recomputed rather
// than read. reallocAfter restores the auto-reallocate knob.
func RestoreSystem(reallocAfter int, snap Snapshot) (*System, error) {
	rt, sec := snap.Tasks()
	s, err := newSystem(snap.ID, snap.Scheme, snap.Heuristic, snap.M, rt, sec)
	if err != nil {
		return nil, err
	}
	if err := Verify(snap); err != nil {
		return nil, fmt.Errorf("online: restore: %w", err)
	}
	s.reallocAfter, s.cursor, s.version, s.rejects = max(reallocAfter, 0), snap.Cursor, snap.Version, snap.RejectStreak
	for _, p := range snap.RT {
		s.st.SeedRT(p.Core, p.Task)
	}
	s.rt = append(s.rt, snap.RT...)
	s.sec = append(s.sec, snap.Sec...)
	return s, nil
}

// Verify checks the paper's guarantee on a committed state, its security
// tasks analyzed at their commit-order priority: every core's real-time
// tasks meet their deadlines under exact RTA, and every security task meets
// Eq. 6 and its exact response time at a period in [TDes, TMax]. It is
// core.Verify and then core.VerifyExact on the state as a core.Input.
func Verify(snap Snapshot) error {
	rt, part := make([]rts.RTTask, len(snap.RT)), make([]int, len(snap.RT))
	for i, p := range snap.RT {
		rt[i], part[i] = p.Task, p.Core
	}
	sec := make([]rts.SecurityTask, len(snap.Sec))
	res := &core.Result{Schedulable: true, Assignment: make([]int, len(snap.Sec)), Periods: make([]rts.Time, len(snap.Sec))}
	for i, p := range snap.Sec {
		sec[i], res.Assignment[i], res.Periods[i] = p.Task, p.Core, p.Period
	}
	in, err := core.NewOrderedInput(snap.M, rt, part, sec)
	if err != nil {
		return err
	}
	if err := core.Verify(in, res); err != nil {
		return err
	}
	return core.VerifyExact(in, res)
}
