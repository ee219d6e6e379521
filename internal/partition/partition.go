// Package partition implements multicore partitioning heuristics for the
// real-time tasks (Davis & Burns survey [13]): first-fit, best-fit,
// worst-fit and next-fit over decreasing-utilization task order, each
// admitting a task only under exact response-time analysis, run on every
// core that could still be chosen (see ChooseCore). The paper's evaluation
// partitions real-time tasks with best-fit (Sec. IV-B).
package partition

import (
	"errors"
	"fmt"
	"math"

	"hydra/internal/rts"
)

// Heuristic selects a bin-packing rule.
type Heuristic int

const (
	// BestFit assigns to the admitting core with the least remaining
	// capacity (highest utilization) — the paper's choice, and therefore
	// the zero value: configs that leave their heuristic unset get the
	// paper's setup.
	BestFit Heuristic = iota
	// FirstFit assigns each task to the lowest-indexed core that admits it.
	FirstFit
	// WorstFit assigns to the admitting core with the most remaining capacity.
	WorstFit
	// NextFit keeps a moving current core, advancing (cyclically, one lap)
	// when the task does not fit.
	NextFit
)

// String implements fmt.Stringer.
func (h Heuristic) String() string {
	switch h {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	case NextFit:
		return "next-fit"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// ParseHeuristic is the inverse of Heuristic.String: it maps the CLI/API
// spelling of a heuristic ("best-fit", ...) to its value. The empty string
// selects the paper's default (BestFit).
func ParseHeuristic(s string) (Heuristic, error) {
	switch s {
	case "", "best-fit":
		return BestFit, nil
	case "first-fit":
		return FirstFit, nil
	case "worst-fit":
		return WorstFit, nil
	case "next-fit":
		return NextFit, nil
	default:
		return 0, fmt.Errorf("partition: unknown heuristic %q (want first-fit, best-fit, worst-fit or next-fit)", s)
	}
}

// ErrUnschedulable is returned when no admissible partition is found.
var ErrUnschedulable = errors.New("partition: no core can admit a task")

// Partition maps every real-time task to a core.
type Partition struct {
	M      int   // number of cores
	CoreOf []int // task index (in the input order) -> core index
}

// Cores groups the tasks by core, preserving input order within a core.
func (p *Partition) Cores(tasks []rts.RTTask) [][]rts.RTTask {
	out := make([][]rts.RTTask, p.M)
	for i, c := range p.CoreOf {
		out[c] = append(out[c], tasks[i])
	}
	return out
}

// PartitionRT partitions the real-time tasks onto m cores with the given
// heuristic. Tasks are considered in decreasing-utilization order (the
// standard companion ordering for these heuristics) and each placement is
// admitted only if the destination core remains schedulable under exact RTA.
// The returned partition indexes tasks in their *input* order.
//
// Admission runs on a pooled rts.AnalysisState: each core's RM-sorted task
// set is maintained incrementally across placements and every admission
// trial re-analyzes only the incoming task plus the tasks it would preempt,
// warm-starting their RTA fixed points from the memoized response times —
// instead of re-sorting and re-iterating the whole core from scratch per
// candidate. Placements and verdicts are identical to the historical
// cold-start implementation.
//
// First-fit and best-fit fill a prefix of the cores, because an empty core
// admits every valid task (its response time is C <= D). So the packing onto
// m-1 cores is the one onto m cores if that leaves core m-1 empty, and fails
// otherwise, as it does when the m-core packing fails (FuzzNestedPacking).
func PartitionRT(tasks []rts.RTTask, m int, h Heuristic) (*Partition, error) {
	if m <= 0 {
		return nil, fmt.Errorf("partition: need at least one core, got %d", m)
	}
	for i := range tasks {
		if err := tasks[i].Validate(); err != nil {
			return nil, err
		}
	}
	order := make([]rankedTask, len(tasks))
	for i := range order {
		order[i] = rankedTask{u: tasks[i].Utilization(), i: i}
	}
	// Decreasing utilization; ties by input index for determinism.
	sortByUtilDesc(order)

	st := rts.AcquireAnalysisState(m)
	defer rts.ReleaseAnalysisState(st)
	coreOf := make([]int, len(tasks))
	next := 0 // NextFit cursor
	for _, o := range order {
		task := tasks[o.i]
		chosen, err := ChooseCore(h, m,
			func(c int) bool { return st.TryAddRT(c, task) },
			st.RTUtil,
			&next)
		if err != nil {
			return nil, err
		}
		if chosen < 0 {
			return nil, fmt.Errorf("%w: task %q (U=%.3f) on %d cores with %v",
				ErrUnschedulable, task.Name, task.Utilization(), m, h)
		}
		st.AddRT(chosen, task)
		coreOf[o.i] = chosen
	}
	return &Partition{M: m, CoreOf: coreOf}, nil
}

// ChooseCore applies a bin-packing heuristic to one placement decision over
// cores 0..m-1: admits reports whether a core can take the item, util is the
// load metric the fit heuristics compare, and cursor carries the NextFit
// position across calls. It returns -1 when no core admits the item, and an
// error for an unknown heuristic. Both the real-time partitioner and the
// security-task bin-packing baseline route their selection through here so
// tie-breaking stays identical.
//
// Best-fit and worst-fit call admits on every core until one admits, then
// only on cores whose util beats the chosen one's: they choose what a full
// scan chooses, and -1 still means every core was tried.
func ChooseCore(h Heuristic, m int, admits func(int) bool, util func(int) float64, cursor *int) (int, error) {
	chosen := -1
	switch h {
	case FirstFit:
		for c := 0; c < m; c++ {
			if admits(c) {
				chosen = c
				break
			}
		}
	case BestFit:
		bestU := -1.0
		for c := 0; c < m; c++ {
			if u := util(c); (chosen < 0 || u > bestU) && admits(c) && u > bestU {
				bestU, chosen = u, c
			}
		}
	case WorstFit:
		bestU := math.Inf(1)
		for c := 0; c < m; c++ {
			if u := util(c); (chosen < 0 || u < bestU) && admits(c) && u < bestU {
				bestU, chosen = u, c
			}
		}
	case NextFit:
		for tries := 0; tries < m; tries++ {
			c := (*cursor + tries) % m
			if admits(c) {
				chosen = c
				*cursor = c
				break
			}
		}
	default:
		return -1, fmt.Errorf("partition: unknown heuristic %v", h)
	}
	return chosen, nil
}

// rankedTask is a task index with its utilization, computed once for the
// sort.
type rankedTask struct {
	u float64
	i int
}

// sortByUtilDesc sorts by decreasing utilization, breaking ties by index
// (stable, deterministic).
func sortByUtilDesc(order []rankedTask) {
	// Insertion sort keeps the dependency surface minimal and is plenty fast
	// for the taskset sizes of the paper's evaluation (<= 10M tasks).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if a.u > b.u || (a.u == b.u && a.i < b.i) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
}

// Validate checks a partition against a taskset: it covers every task, each
// on a core in [0, M), and every core's tasks meet their deadlines under
// exact RTA. It is the one check of a partition the caller pinned (heuristic
// partitions pass it by construction).
func (p *Partition) Validate(tasks []rts.RTTask) error {
	if len(p.CoreOf) != len(tasks) {
		return fmt.Errorf("partition: covers %d tasks, taskset has %d", len(p.CoreOf), len(tasks))
	}
	for i, c := range p.CoreOf {
		if c < 0 || c >= p.M {
			return fmt.Errorf("partition: task %d assigned to invalid core %d of %d", i, c, p.M)
		}
	}
	for c, core := range p.Cores(tasks) {
		if !rts.CoreSchedulable(core) {
			return fmt.Errorf("partition: core %d is not schedulable under exact RTA", c)
		}
	}
	return nil
}
