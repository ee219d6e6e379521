package sim

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(b)) }

func TestKindString(t *testing.T) {
	if KindRT.String() != "rt" || KindSecurity.String() != "security" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatal("unknown kind string")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := SimulateCore(nil, 0); err == nil {
		t.Fatal("zero horizon must error")
	}
	bad := []TaskSpec{{Name: "x", C: 0, T: 10}}
	if _, err := SimulateCore(bad, 100); err == nil {
		t.Fatal("zero WCET must error")
	}
	bad2 := []TaskSpec{{Name: "x", C: 1, T: 10, Offset: -1}}
	if _, err := SimulateCore(bad2, 100); err == nil {
		t.Fatal("negative offset must error")
	}
}

// TestJobBound: a run that would release more than 1<<23 jobs is refused
// with ErrTooManyJobs before any job is built, in both modes and over a
// whole platform, and a NaN horizon is refused too. Without the bound the
// 1e-6 ms period below would materialize 10^10 releases.
func TestJobBound(t *testing.T) {
	tiny := []TaskSpec{{Name: "tiny", C: 1e-7, T: 1e-6}}
	if _, err := SimulateCore(tiny, 1e4); !errors.Is(err, ErrTooManyJobs) || !strings.Contains(err.Error(), "10000000000 in") {
		t.Fatalf("SimulateCore: %v", err)
	}
	if _, err := SimulateGlobalSlack([][]TaskSpec{nil}, tiny, 1e4); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("SimulateGlobalSlack: %v", err)
	}
	// 5*10^6 jobs per core: each core alone is under the bound, the
	// platform is not.
	half := []TaskSpec{{Name: "half", C: 1e-4, T: 2e-3}}
	if _, err := SimulateSystem([][]TaskSpec{half, half}, 1e4); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("SimulateSystem: %v", err)
	}
	if _, err := SimulateCore(tiny, math.NaN()); err == nil || errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("NaN horizon: %v", err)
	}
}

func TestSingleTaskSchedule(t *testing.T) {
	specs := []TaskSpec{{Name: "a", C: 2, T: 10, Prio: 0}}
	tr, err := SimulateCore(specs, 50)
	if err != nil {
		t.Fatal(err)
	}
	jobs := tr.JobsOf(0)
	if len(jobs) != 5 {
		t.Fatalf("job count = %d, want 5", len(jobs))
	}
	for k, j := range jobs {
		wantRel := Time(10 * k)
		if !near(j.Release, wantRel, 1e-12) || !near(j.Start, wantRel, 1e-12) || !near(j.Finish, wantRel+2, 1e-12) {
			t.Fatalf("job %d = %+v", k, j)
		}
		if got := j.ResponseTime(); !near(got, 2, 1e-12) {
			t.Fatalf("response time = %v", got)
		}
	}
	if tr.Misses != 0 || tr.Unstarted != 0 {
		t.Fatalf("misses=%d unstarted=%d", tr.Misses, tr.Unstarted)
	}
	// Idle: 8 ms of every 10 ms period.
	if !near(tr.IdleTime, 40, 1e-9) {
		t.Fatalf("idle = %v, want 40", tr.IdleTime)
	}
	if !near(tr.Utilization(), 0.2, 1e-9) {
		t.Fatalf("utilization = %v", tr.Utilization())
	}
}

func TestPreemption(t *testing.T) {
	// Low-priority long job released at 0; high-priority short job at 1.
	specs := []TaskSpec{
		{Name: "hi", C: 1, T: 100, Offset: 1, Prio: 0},
		{Name: "lo", C: 5, T: 100, Offset: 0, Prio: 1},
	}
	tr, err := SimulateCore(specs, 100)
	if err != nil {
		t.Fatal(err)
	}
	lo := tr.JobsOf(1)[0]
	hi := tr.JobsOf(0)[0]
	if !near(hi.Start, 1, 1e-12) || !near(hi.Finish, 2, 1e-12) {
		t.Fatalf("hi = %+v", hi)
	}
	// lo runs [0,1), preempted, resumes [2,6).
	if !near(lo.Start, 0, 1e-12) || !near(lo.Finish, 6, 1e-12) {
		t.Fatalf("lo = %+v", lo)
	}
	if lo.Preemptions != 1 {
		t.Fatalf("lo preemptions = %d, want 1", lo.Preemptions)
	}
}

func TestNonPreemptiveBlocksHigherPriority(t *testing.T) {
	specs := []TaskSpec{
		{Name: "hi", C: 1, T: 100, Offset: 1, Prio: 0},
		{Name: "lo-np", C: 5, T: 100, Offset: 0, Prio: 1, NonPreemptive: true},
	}
	tr, err := SimulateCore(specs, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Slack mode keeps the rule for pinned tasks.
	slack, err := SimulateGlobalSlack([][]TaskSpec{specs}, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	for mode, tr := range []*CoreTrace{tr, slack.Cores[0]} {
		lo := tr.JobsOf(1)[0]
		hi := tr.JobsOf(0)[0]
		// lo runs to completion [0,5); hi waits until 5 despite higher priority.
		if !near(lo.Finish, 5, 1e-12) || lo.Preemptions != 0 {
			t.Fatalf("mode %d: lo = %+v", mode, lo)
		}
		if !near(hi.Start, 5, 1e-12) || !near(hi.Finish, 6, 1e-12) {
			t.Fatalf("mode %d: hi = %+v", mode, hi)
		}
	}
}

// A job left with less than half an ulp of the clock to run cannot move the
// clock again (from 2^24 ms, about 4.7 h, on), so it must finish where it
// stands instead of stalling the event loop, in both modes. Here lo is left
// with 1.5e-9 ms at at+1, when hi is released.
func TestSubUlpRemainingFinishes(t *testing.T) {
	const at = 1 << 24 // ms; one ulp of the clock is 3.7e-9 ms here
	specs := []TaskSpec{
		{Name: "hi", C: 1, T: 1e12, Offset: at + 1, Prio: 0},
		{Name: "lo", C: 1 + 1.5e-9, T: 1e12, Offset: at, Prio: 1},
	}
	done := make(chan []*CoreTrace, 1)
	go func() {
		tr, err1 := SimulateCore(specs, 2*at)
		st, err2 := SimulateGlobalSlack([][]TaskSpec{specs}, nil, 2*at)
		if err1 != nil || err2 != nil {
			t.Errorf("SimulateCore: %v; SimulateGlobalSlack: %v", err1, err2)
			done <- nil
			return
		}
		done <- []*CoreTrace{tr, st.Cores[0]}
	}()
	select {
	case trs := <-done:
		for mode, tr := range trs {
			if lo, hi := tr.JobsOf(1)[0], tr.JobsOf(0)[0]; lo.Finish != at+1 || lo.Preemptions != 0 || hi.Finish != at+2 {
				t.Fatalf("mode %d: lo = %+v, hi = %+v, want lo done at %v and hi at %v", mode, lo, hi, at+1, at+2)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the simulation stalled on a sub-ulp remaining time")
	}
}

func TestRateMonotonicTextbookResponse(t *testing.T) {
	// Same set as the RTA test: (1,4),(2,6),(3,12) — worst-case response of
	// the lowest task is 10 at the critical instant (all offsets 0).
	specs := []TaskSpec{
		{Name: "t1", C: 1, T: 4, Prio: 0},
		{Name: "t2", C: 2, T: 6, Prio: 1},
		{Name: "t3", C: 3, T: 12, Prio: 2},
	}
	tr, err := SimulateCore(specs, 12)
	if err != nil {
		t.Fatal(err)
	}
	j := tr.JobsOf(2)[0]
	if !near(j.Finish, 10, 1e-9) {
		t.Fatalf("t3 first-job finish = %v, want 10 (matches RTA)", j.Finish)
	}
	if tr.Misses != 0 {
		t.Fatalf("misses = %d", tr.Misses)
	}
}

func TestDeadlineMissDetected(t *testing.T) {
	specs := []TaskSpec{
		{Name: "hog", C: 9, T: 10, Prio: 0},
		{Name: "starved", C: 5, T: 10, Prio: 1},
	}
	tr, err := SimulateCore(specs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Misses == 0 {
		t.Fatal("overload must produce deadline misses")
	}
}

func TestOffsetRelease(t *testing.T) {
	specs := []TaskSpec{{Name: "a", C: 1, T: 10, Offset: 3, Prio: 0}}
	tr, err := SimulateCore(specs, 30)
	if err != nil {
		t.Fatal(err)
	}
	jobs := tr.JobsOf(0)
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3 (releases at 3, 13, 23)", len(jobs))
	}
	if !near(jobs[0].Release, 3, 1e-12) {
		t.Fatalf("first release = %v", jobs[0].Release)
	}
}

func TestUnfinishedAtHorizon(t *testing.T) {
	specs := []TaskSpec{{Name: "a", C: 10, T: 100, Prio: 0}}
	tr, err := SimulateCore(specs, 5)
	if err != nil {
		t.Fatal(err)
	}
	j := tr.JobsOf(0)[0]
	if j.Finish >= 0 {
		t.Fatalf("job should be unfinished, got finish %v", j.Finish)
	}
	if j.ResponseTime() != -1 {
		t.Fatal("unfinished response time must be -1")
	}
}

func TestSimulateSystem(t *testing.T) {
	perCore := [][]TaskSpec{
		{{Name: "a", C: 1, T: 10, Prio: 0}},
		{{Name: "b", C: 2, T: 10, Prio: 0}},
	}
	st, err := SimulateSystem(perCore, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cores) != 2 {
		t.Fatalf("cores = %d", len(st.Cores))
	}
	if st.TotalMisses() != 0 {
		t.Fatalf("misses = %d", st.TotalMisses())
	}
	bad := [][]TaskSpec{{{Name: "x", C: 0, T: 1}}}
	if _, err := SimulateSystem(bad, 100); err == nil {
		t.Fatal("invalid core spec must error")
	}
}

// Property: total busy time equals the executed demand: for feasible
// workloads (all jobs finish), busy = sum over jobs of C, and
// idle + busy = horizon.
func TestWorkConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		specs := make([]TaskSpec, n)
		var util float64
		for i := range specs {
			period := 20 + 80*rng.Float64()
			u := 0.05 + 0.15*rng.Float64()
			specs[i] = TaskSpec{Name: "t", C: u * period, T: period, Prio: i}
			util += u
		}
		if util >= 0.95 {
			return true
		}
		horizon := Time(2000)
		tr, err := SimulateCore(specs, horizon)
		if err != nil {
			return false
		}
		var demand Time
		for _, j := range tr.Jobs {
			if j.Finish >= 0 {
				demand += specs[j.Task].C
			} else if j.Start >= 0 {
				// Partially executed tail job: count executed portion.
				demand += horizon - j.Start // upper bound; refine below
			}
		}
		busy := horizon - tr.IdleTime
		// Allow the tail-job slack in the comparison.
		return busy <= demand+1e-6 && busy >= demand-specs[0].C-1e-6-40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: priority isolation — the highest-priority task's response time
// always equals its WCET (no blocking without non-preemptive tasks).
func TestHighestPriorityIsolationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		specs := make([]TaskSpec, n)
		for i := range specs {
			period := 20 + 180*rng.Float64()
			specs[i] = TaskSpec{Name: "t", C: 0.1 * period, T: period, Prio: i}
		}
		tr, err := SimulateCore(specs, 1000)
		if err != nil {
			return false
		}
		for _, j := range tr.JobsOf(0) {
			if j.Finish < 0 {
				continue
			}
			if !near(j.ResponseTime(), specs[0].C, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
