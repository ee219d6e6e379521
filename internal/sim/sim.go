// Package sim provides a deterministic discrete-event simulator of
// preemptive fixed-priority scheduling. One event loop serves both modes.
// Pinned mode is one run per core: cores are independent under partitioned
// scheduling, so a multicore platform is a set of per-core runs (see
// SimulateSystem). Slack mode is one run over all cores, in which security
// jobs may take any idle core (see SimulateGlobalSlack).
//
// The simulator substitutes for the paper's ARM Cortex-A8 / Xenomai testbed
// (Sec. IV-A): Fig. 1 measures scheduling-level intrusion-detection latency,
// which depends only on the schedule the simulator reproduces exactly.
// Released jobs execute for their full WCET (the worst case the paper's
// analysis targets); releases are strictly periodic from a per-task offset —
// the critical-instant pattern for offset zero.
package sim

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Time is milliseconds, matching the rts package.
type Time = float64

// Kind distinguishes real-time from security tasks in traces.
type Kind int

const (
	// KindRT marks a real-time task.
	KindRT Kind = iota
	// KindSecurity marks a security task.
	KindSecurity
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRT:
		return "rt"
	case KindSecurity:
		return "security"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TaskSpec is one periodic task, pinned to a core or, in slack mode, global.
type TaskSpec struct {
	Name   string
	C      Time // execution demand per job (WCET)
	T      Time // period
	Offset Time // release of the first job
	Prio   int  // static priority: smaller value preempts larger
	Kind   Kind
	// NonPreemptive makes every job of this pinned task run to completion
	// once it first gets the processor (the Sec. V extension for critical
	// security checks), in both modes. Higher-priority jobs arriving
	// meanwhile are blocked. A global task's job is evicted by any pinned
	// release on its core whatever this flag says, and global jobs never
	// preempt one another.
	NonPreemptive bool
}

// Job is one completed (or still-pending) job instance in a trace.
type Job struct {
	Task        int // index into the spec slice
	Release     Time
	Start       Time // first instant the job executed; -1 if never started
	Finish      Time // completion; -1 if unfinished at the horizon
	Preemptions int  // times the job was preempted after starting
}

// ResponseTime returns Finish - Release, or -1 for unfinished jobs.
func (j Job) ResponseTime() Time {
	if j.Finish < 0 {
		return -1
	}
	return j.Finish - j.Release
}

// CoreTrace is the outcome of simulating one core.
type CoreTrace struct {
	Specs     []TaskSpec
	Horizon   Time
	Jobs      []Job // all jobs released before the horizon, in release order
	IdleTime  Time  // total time the core was idle
	Misses    int   // jobs finishing after release+period (implicit deadline)
	Unstarted int   // jobs never dispatched before the horizon
}

// JobsOf returns the completed jobs of one task, in release order.
func (tr *CoreTrace) JobsOf(task int) []Job {
	var out []Job
	for _, j := range tr.Jobs {
		if j.Task == task {
			out = append(out, j)
		}
	}
	return out
}

// Utilization returns the fraction of the horizon the core was busy.
func (tr *CoreTrace) Utilization() float64 {
	if tr.Horizon <= 0 {
		return 0
	}
	return 1 - tr.IdleTime/tr.Horizon
}

// pending is a released, unfinished job in a ready queue.
type pending struct {
	trace     int // the job's trace: its core, or len(pinned) for a global task
	job       int // index into that trace's Jobs
	prio      int
	seq       int // release tie-break: earlier release first
	remaining Time
	nonPre    bool
}

// readyQueue orders pending jobs by (prio, seq).
type readyQueue []*pending

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q readyQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x interface{}) { *q = append(*q, x.(*pending)) }
func (q *readyQueue) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return item
}

// release is one job arrival: task indexes the spec list of trace. It stays
// at 16 B, since a run holds one per job.
type release struct {
	at          Time
	trace, task int32
}

const timeEps = 1e-9

// ErrTooManyJobs refuses a run that would release more than maxJobs jobs in
// [0, horizon). A run builds a release and a Job per job before its first
// event, so the count comes first; the error carries it.
var ErrTooManyJobs = errors.New("sim: too many jobs")

const maxJobs = 1 << 23

// countJobs returns Σ⌈(horizon − Offset)/T⌉ over the tasks with a valid
// period, or ErrTooManyJobs above maxJobs. The bound also ends at += T
// loops that stall below an ulp, which takes 2^52 jobs from a zero offset.
func countJobs(lists [][]TaskSpec, horizon Time) (int, error) {
	n := 0.0
	for _, specs := range lists {
		for _, s := range specs {
			if s.T > 0 && s.Offset < horizon {
				n += math.Ceil((horizon - s.Offset) / s.T)
			}
		}
	}
	if n > maxJobs {
		return 0, fmt.Errorf("%w: %.0f in [0, %g) ms, more than %d", ErrTooManyJobs, n, horizon, maxJobs)
	}
	return int(n), nil
}

// SimulateCore runs the core for [0, horizon) and returns the trace.
func SimulateCore(specs []TaskSpec, horizon Time) (*CoreTrace, error) {
	traces, err := simulate([][]TaskSpec{specs}, nil, horizon)
	if err != nil {
		return nil, err
	}
	return traces[0], nil
}

// simulate is the one event loop: fixed-priority scheduling of
// len(pinned) cores for [0, horizon). Core c runs the tasks of pinned[c];
// a job of a global task runs on any core with no ready pinned job. It
// returns one trace per core and, at index len(pinned), the global tasks'.
//
// Dispatch, per core: a started non-preemptive pinned job keeps its core;
// otherwise the top ready pinned job takes the core from a global job or a
// lower-priority pinned job. Then idle cores take global jobs, highest
// priority first; global jobs never preempt one another. Time moves to the
// next release, completion or the horizon, whichever comes first.
func simulate(pinned [][]TaskSpec, global []TaskSpec, horizon Time) ([]*CoreTrace, error) {
	if !(horizon > 0) {
		return nil, fmt.Errorf("sim: horizon must be positive, got %g", horizon)
	}
	m := len(pinned)
	lists := append(pinned[:m:m], global)
	jobs, err := countJobs(lists, horizon)
	if err != nil {
		return nil, err
	}
	traces := make([]*CoreTrace, m+1)
	releases := make([]release, 0, jobs)
	for tr, specs := range lists {
		n := len(releases)
		for i, s := range specs {
			if !(s.C > 0) || !(s.T > 0) || s.Offset < 0 || math.IsNaN(s.C+s.T+s.Offset) {
				return nil, fmt.Errorf("sim: task %d (%q) has invalid parameters C=%g T=%g Offset=%g", i, s.Name, s.C, s.T, s.Offset)
			}
			for at := s.Offset; at < horizon; at += s.T {
				releases = append(releases, release{at: at, trace: int32(tr), task: int32(i)})
			}
		}
		traces[tr] = &CoreTrace{Specs: specs, Horizon: horizon, Jobs: make([]Job, 0, len(releases)-n)}
	}
	slices.SortStableFunc(releases, func(a, b release) int { return cmp.Compare(a.at, b.at) })

	ready := make([]readyQueue, m+1) // per core, then the global queue
	running := make([]*pending, m)   // the job holding each core
	now, next := Time(0), 0
	// admit queues and records every release due by now. The loop below
	// ends at or past horizon-timeEps, so every release gets a record.
	admit := func() {
		for ; next < len(releases) && releases[next].at <= now+timeEps; next++ {
			r := releases[next]
			tr := traces[r.trace]
			s := tr.Specs[r.task]
			heap.Push(&ready[r.trace], &pending{trace: int(r.trace), job: len(tr.Jobs), prio: s.Prio, seq: next, remaining: s.C, nonPre: s.NonPreemptive})
			tr.Jobs = append(tr.Jobs, Job{Task: int(r.task), Release: r.at, Start: -1, Finish: -1})
		}
	}
	admit()

	for now < horizon-timeEps {
		// A running job has always started, so nonPre alone keeps the core.
		for c, cur := range running {
			q := &ready[c]
			if len(*q) == 0 || cur != nil && cur.trace == c && (cur.nonPre || (*q)[0].prio >= cur.prio) {
				continue
			}
			if cur != nil { // preempted: back to its own queue
				traces[cur.trace].Jobs[cur.job].Preemptions++
				heap.Push(&ready[cur.trace], cur)
			}
			running[c] = heap.Pop(q).(*pending)
		}
		for c, cur := range running {
			if cur == nil && len(ready[m]) > 0 {
				running[c] = heap.Pop(&ready[m]).(*pending)
			}
		}

		until := horizon
		if next < len(releases) {
			until = min(until, releases[next].at)
		}
		for _, p := range running {
			if p != nil {
				until = min(until, now+p.remaining)
			}
		}
		for c, p := range running {
			if p == nil {
				traces[c].IdleTime += until - now
				continue
			}
			if j := &traces[p.trace].Jobs[p.job]; j.Start < 0 {
				j.Start = now
			}
			p.remaining -= until - now
		}
		now = until
		admit()
		// A remaining time below half an ulp of the clock (possible from
		// 2^24 ms on) cannot move it, so that job finishes now too.
		for c, p := range running {
			if p != nil && (p.remaining <= timeEps || now+p.remaining == now) {
				traces[p.trace].Jobs[p.job].Finish = now
				running[c] = nil
			}
		}
	}

	for _, tr := range traces {
		for _, j := range tr.Jobs {
			if j.Start < 0 {
				tr.Unstarted++
			} else if j.Finish >= 0 && j.Finish > j.Release+tr.Specs[j.Task].T+timeEps {
				tr.Misses++
			}
		}
	}
	return traces, nil
}

// SystemTrace bundles the per-core traces of a partitioned platform.
type SystemTrace struct {
	Cores []*CoreTrace
}

// SimulateSystem simulates every core independently (partitioned scheduling
// has no cross-core interaction) for the same horizon.
func SimulateSystem(perCore [][]TaskSpec, horizon Time) (*SystemTrace, error) {
	// The job bound holds for the platform, not only for each core's run.
	if _, err := countJobs(perCore, horizon); err != nil {
		return nil, err
	}
	st := &SystemTrace{Cores: make([]*CoreTrace, len(perCore))}
	for c, specs := range perCore {
		tr, err := SimulateCore(specs, horizon)
		if err != nil {
			return nil, fmt.Errorf("sim: core %d: %w", c, err)
		}
		st.Cores[c] = tr
	}
	return st, nil
}

// SimulateGlobalSlack implements the runtime slack-reclamation mode the
// paper's Discussion (Sec. V) leaves as future work: real-time tasks stay
// partitioned, while ready security jobs may execute on *any* core that is
// currently free of ready real-time work, migrating at dispatch granularity
// instead of being pinned to their HYDRA core. Security jobs never delay
// real-time jobs: a real-time release on the core a security job occupies
// evicts it at once, and the job may resume elsewhere. Security jobs never
// preempt one another, and a started non-preemptive real-time job keeps its
// core, as in pinned mode. It is one run of the event loop over all cores.
//
// rtPerCore pins the real-time tasks; sec lists the security tasks with
// their adapted periods (priorities inside sec follow TaskSpec.Prio).
// The returned trace uses a synthetic core layout: core c's spec list is
// rtPerCore[c] (RT jobs are recorded per home core), and security jobs are
// recorded on a virtual "core" appended at index len(rtPerCore) whose specs
// are sec — their executing core varies and is not tracked per job.
func SimulateGlobalSlack(rtPerCore [][]TaskSpec, sec []TaskSpec, horizon Time) (*SystemTrace, error) {
	if len(rtPerCore) == 0 {
		return nil, fmt.Errorf("sim: need at least one core")
	}
	traces, err := simulate(rtPerCore, sec, horizon)
	if err != nil {
		return nil, err
	}
	return &SystemTrace{Cores: traces}, nil
}

// TotalMisses sums deadline misses across cores.
func (st *SystemTrace) TotalMisses() int {
	var n int
	for _, c := range st.Cores {
		n += c.Misses
	}
	return n
}

// MaxObservedResponse returns the largest response time among the finished
// jobs of one task, or -1 when no job of the task finished.
func (tr *CoreTrace) MaxObservedResponse(task int) Time {
	worst := Time(-1)
	for _, j := range tr.Jobs {
		if j.Task != task || j.Finish < 0 {
			continue
		}
		if r := j.ResponseTime(); r > worst {
			worst = r
		}
	}
	return worst
}

// ResponseTimes returns the response times of all finished jobs of a task,
// in release order.
func (tr *CoreTrace) ResponseTimes(task int) []Time {
	var out []Time
	for _, j := range tr.Jobs {
		if j.Task == task && j.Finish >= 0 {
			out = append(out, j.ResponseTime())
		}
	}
	return out
}
