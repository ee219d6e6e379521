package sim

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
)

// Cross-validation between the simulator and the analytical models in
// internal/rts: the simulated synchronous (offset-0) schedule must never
// exceed the exact response-time-analysis bound, and at the critical instant
// the first job of the lowest-priority task must achieve it exactly.

func TestSimMatchesRTAAtCriticalInstant(t *testing.T) {
	tasks := []rts.RTTask{
		rts.NewRTTask("t1", 1, 4),
		rts.NewRTTask("t2", 2, 6),
		rts.NewRTTask("t3", 3, 12),
	}
	specs := make([]TaskSpec, len(tasks))
	for i, task := range tasks {
		specs[i] = TaskSpec{Name: task.Name, C: task.C, T: task.T, Prio: i}
	}
	tr, err := SimulateCore(specs, 120)
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		bound, ok := rts.ResponseTime(task.C, task.D, tasks[:i])
		if !ok {
			t.Fatalf("task %d not schedulable analytically", i)
		}
		first := tr.JobsOf(i)[0]
		if first.ResponseTime() != bound {
			t.Fatalf("task %d: first-job response %v != RTA bound %v", i, first.ResponseTime(), bound)
		}
		if worst := tr.MaxObservedResponse(i); worst > bound+1e-9 {
			t.Fatalf("task %d: observed worst %v exceeds RTA bound %v", i, worst, bound)
		}
	}
}

// Property: for random schedulable synchronous tasksets, every simulated
// response time is bounded by the RTA worst case, and the first job hits it.
func TestSimNeverExceedsRTAProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		tasks := make([]rts.RTTask, n)
		for i := range tasks {
			period := 10 + 190*rng.Float64()
			u := 0.05 + 0.15*rng.Float64()
			tasks[i] = rts.NewRTTask("t", u*period, period)
		}
		rts.SortRateMonotonic(tasks)
		if !rts.CoreSchedulable(tasks) {
			return true
		}
		specs := make([]TaskSpec, n)
		for i, task := range tasks {
			specs[i] = TaskSpec{Name: task.Name, C: task.C, T: task.T, Prio: i}
		}
		tr, err := SimulateCore(specs, 2000)
		if err != nil {
			return false
		}
		for i, task := range tasks {
			bound, ok := rts.ResponseTime(task.C, task.D, tasks[:i])
			if !ok {
				return false
			}
			if worst := tr.MaxObservedResponse(i); worst > bound+1e-6 {
				return false
			}
			first := tr.JobsOf(i)[0]
			if first.Finish >= 0 && first.ResponseTime() > bound+1e-6 {
				return false
			}
		}
		return tr.Misses == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseTimesHelper(t *testing.T) {
	specs := []TaskSpec{{Name: "a", C: 2, T: 10, Prio: 0}}
	tr, err := SimulateCore(specs, 35)
	if err != nil {
		t.Fatal(err)
	}
	rs := tr.ResponseTimes(0)
	if len(rs) != 4 {
		t.Fatalf("response times = %v", rs)
	}
	for _, r := range rs {
		if r != 2 {
			t.Fatalf("response = %v, want 2", r)
		}
	}
	if tr.MaxObservedResponse(0) != 2 {
		t.Fatalf("max observed = %v", tr.MaxObservedResponse(0))
	}
	if tr.MaxObservedResponse(99) != -1 {
		t.Fatal("unknown task must return -1")
	}
}

// lowerSnapshot turns a committed online state into per-core simulator
// specs, prioritized as the analysis assumes: real-time tasks
// rate-monotonic by (T, name), security tasks below every real-time task in
// commit order (the first committed highest) at their adapted periods.
// deadline[c][i] is the deadline of core c's spec i: D for a real-time task,
// the adapted period for a security task.
func lowerSnapshot(snap online.Snapshot) (specs [][]TaskSpec, deadline [][]Time) {
	specs, deadline = make([][]TaskSpec, snap.M), make([][]Time, snap.M)
	rm := slices.Clone(snap.RT)
	slices.SortStableFunc(rm, func(a, b online.PlacedRT) int {
		return cmp.Or(cmp.Compare(a.Task.T, b.Task.T), cmp.Compare(a.Task.Name, b.Task.Name))
	})
	for prio, p := range rm {
		specs[p.Core] = append(specs[p.Core], TaskSpec{Name: p.Task.Name, C: p.Task.C, T: p.Task.T, Prio: prio, Kind: KindRT})
		deadline[p.Core] = append(deadline[p.Core], p.Task.D)
	}
	for i, p := range snap.Sec {
		specs[p.Core] = append(specs[p.Core], TaskSpec{Name: p.Task.Name, C: p.Task.C, T: p.Period, Prio: len(rm) + i, Kind: KindSecurity})
		deadline[p.Core] = append(deadline[p.Core], p.Period)
	}
	return specs, deadline
}

// TestOnlineStatesMeetDeadlinesInSimulation checks the paper's guarantee in
// the simulator, not only in the analysis, on the states online systems
// reach. Each hydra system is hosted on a 0.4·M taskgen base, M in 2..4, and
// takes arrivals from a 0.9·M pool, so some are refused, and some removals.
// Every state it reaches is simulated from the synchronous release for
// three times its longest period: every finished job must respond within
// its deadline, and no job may be unfinished past it.
func TestOnlineStatesMeetDeadlinesInSimulation(t *testing.T) {
	heuristics := []partition.Heuristic{partition.BestFit, partition.FirstFit, partition.WorstFit, partition.NextFit}
	var states, jobs, rejects int
	check := func(snap online.Snapshot) {
		states++
		specs, deadline := lowerSnapshot(snap)
		var horizon Time
		for _, core := range specs {
			for _, s := range core {
				horizon = max(horizon, 3*s.T)
			}
		}
		if horizon == 0 {
			return
		}
		st, err := SimulateSystem(specs, horizon)
		if err != nil {
			t.Fatal(err)
		}
		for c, tr := range st.Cores {
			for _, j := range tr.Jobs {
				jobs++
				d := deadline[c][j.Task]
				if j.Finish >= 0 && j.ResponseTime() > d+timeEps || j.Finish < 0 && j.Release+d < horizon-timeEps {
					t.Fatalf("M=%d version %d: core %d %s %q released at %v: finish %v, deadline %v",
						snap.M, snap.Version, c, tr.Specs[j.Task].Kind, tr.Specs[j.Task].Name, j.Release, j.Finish, d)
				}
			}
		}
	}
	for m := 2; m <= 4; m++ {
		for seed := int64(1); seed <= 3; seed++ {
			gen := func(util float64, stream int64) *taskgen.Workload {
				w, err := taskgen.Generate(taskgen.DefaultParams(m, util*float64(m)), stats.SplitRNG(2900+seed, stream))
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			base, pool := gen(0.4, 0), gen(0.9, 1)
			s, err := online.NewSystem("x", "hydra", heuristics[(m+int(seed))%4], m, base.RT, nil, base.Sec)
			if err != nil {
				t.Fatal(err)
			}
			check(s.Snapshot())
			rng := stats.SplitRNG(2900+seed, 2)
			for len(pool.RT)+len(pool.Sec) > 0 { // arrivals in random interleaving
				if len(pool.Sec) == 0 || len(pool.RT) > 0 && rng.Intn(2) == 0 {
					task := pool.RT[0]
					task.Name, pool.RT = "p-"+task.Name, pool.RT[1:]
					_, err = s.AddRT(task)
				} else {
					task := pool.Sec[0]
					task.Name, pool.Sec = "p-"+task.Name, pool.Sec[1:]
					_, err = s.AddSecurity(task)
				}
				if errors.As(err, new(*online.Rejection)) {
					rejects++
					continue
				} else if err != nil {
					t.Fatal(err)
				}
				snap := s.Snapshot()
				check(snap)
				if rng.Intn(3) == 0 { // remove a committed task, just admitted or older
					k, name := rng.Intn(len(snap.RT)+len(snap.Sec)), ""
					if k < len(snap.RT) {
						name = snap.RT[k].Task.Name
					} else {
						name = snap.Sec[k-len(snap.RT)].Task.Name
					}
					if _, err := s.Remove(name); err != nil {
						t.Fatal(err)
					}
					check(s.Snapshot())
				}
			}
		}
	}
	t.Logf("%d states, %d jobs, %d rejections", states, jobs, rejects)
	if rejects == 0 {
		t.Fatal("the pool must overload some arrivals")
	}
}
