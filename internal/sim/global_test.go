package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGlobalSlackValidation(t *testing.T) {
	if _, err := SimulateGlobalSlack(nil, nil, 100); err == nil {
		t.Fatal("no cores must error")
	}
	rt := [][]TaskSpec{{{Name: "a", C: 1, T: 10, Prio: 0}}}
	if _, err := SimulateGlobalSlack(rt, nil, 0); err == nil {
		t.Fatal("zero horizon must error")
	}
	badRT := [][]TaskSpec{{{Name: "a", C: 0, T: 10}}}
	if _, err := SimulateGlobalSlack(badRT, nil, 100); err == nil {
		t.Fatal("invalid rt spec must error")
	}
	badSec := []TaskSpec{{Name: "s", C: 0, T: 10}}
	if _, err := SimulateGlobalSlack(rt, badSec, 100); err == nil {
		t.Fatal("invalid security spec must error")
	}
	nanOffset := []TaskSpec{{Name: "s", C: 1, T: 10, Offset: math.NaN()}}
	if _, err := SimulateGlobalSlack(rt, nanOffset, 100); err == nil {
		t.Fatal("NaN security offset must error")
	}
	if _, err := SimulateGlobalSlack([][]TaskSpec{nanOffset}, nil, 100); err == nil {
		t.Fatal("NaN rt offset must error")
	}
}

func TestGlobalSlackRTScheduleUntouched(t *testing.T) {
	// RT jobs must see exactly the same schedule with and without migrating
	// security jobs in the system.
	rt := [][]TaskSpec{
		{{Name: "a", C: 4, T: 10, Prio: 0}},
		{{Name: "b", C: 6, T: 20, Prio: 0}},
	}
	sec := []TaskSpec{
		{Name: "s0", C: 5, T: 50, Prio: 100, Kind: KindSecurity},
		{Name: "s1", C: 8, T: 100, Prio: 101, Kind: KindSecurity},
	}
	withSec, err := SimulateGlobalSlack(rt, sec, 500)
	if err != nil {
		t.Fatal(err)
	}
	withoutSec, err := SimulateGlobalSlack(rt, nil, 500)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		a, b := withSec.Cores[c].Jobs, withoutSec.Cores[c].Jobs
		if len(a) != len(b) {
			t.Fatalf("core %d: job counts differ", c)
		}
		for i := range a {
			if a[i].Start != b[i].Start || a[i].Finish != b[i].Finish {
				t.Fatalf("core %d job %d: RT schedule perturbed: %+v vs %+v", c, i, a[i], b[i])
			}
		}
	}
	if withSec.Cores[0].Misses != 0 || withSec.Cores[1].Misses != 0 {
		t.Fatal("RT misses in a feasible workload")
	}
}

func TestGlobalSlackSecurityMigrates(t *testing.T) {
	// Core 0 is saturated early; core 1 is idle. A security job "homed"
	// anywhere must run immediately on core 1 under global slack.
	rt := [][]TaskSpec{
		{{Name: "hog", C: 9, T: 10, Prio: 0}},
		{}, // idle core
	}
	sec := []TaskSpec{{Name: "s", C: 5, T: 100, Prio: 100, Kind: KindSecurity}}
	st, err := SimulateGlobalSlack(rt, sec, 200)
	if err != nil {
		t.Fatal(err)
	}
	secJobs := st.Cores[2].JobsOf(0)
	if len(secJobs) != 2 {
		t.Fatalf("security jobs = %d", len(secJobs))
	}
	// First job starts at 0 on the idle core and completes at 5 despite the
	// hog on core 0.
	if secJobs[0].Start != 0 || secJobs[0].Finish != 5 {
		t.Fatalf("security job should use the idle core: %+v", secJobs[0])
	}
}

func TestGlobalSlackFasterThanPartitioned(t *testing.T) {
	// Partitioned: security pinned to the loaded core finishes late.
	// Global: it escapes to the idle core.
	rtLoaded := []TaskSpec{{Name: "rt", C: 8, T: 10, Prio: 0}}
	sec := TaskSpec{Name: "s", C: 6, T: 100, Prio: 100, Kind: KindSecurity}

	pinned, err := SimulateCore(append(append([]TaskSpec{}, rtLoaded...), sec), 100)
	if err != nil {
		t.Fatal(err)
	}
	pinnedJob := pinned.JobsOf(1)[0]

	global, err := SimulateGlobalSlack([][]TaskSpec{rtLoaded, {}}, []TaskSpec{sec}, 100)
	if err != nil {
		t.Fatal(err)
	}
	globalJob := global.Cores[2].JobsOf(0)[0]
	if globalJob.Finish >= pinnedJob.Finish {
		t.Fatalf("global slack should finish earlier: %v vs %v", globalJob.Finish, pinnedJob.Finish)
	}
}

func TestGlobalSlackSecurityEvictedByRT(t *testing.T) {
	// Security job starts on a core, RT job arrives there, security must not
	// delay it.
	rt := [][]TaskSpec{{{Name: "rt", C: 5, T: 100, Offset: 2, Prio: 0}}}
	sec := []TaskSpec{{Name: "s", C: 10, T: 100, Prio: 100, Kind: KindSecurity}}
	st, err := SimulateGlobalSlack(rt, sec, 100)
	if err != nil {
		t.Fatal(err)
	}
	rtJob := st.Cores[0].JobsOf(0)[0]
	if rtJob.Start != 2 || rtJob.Finish != 7 {
		t.Fatalf("RT job delayed by security job: %+v", rtJob)
	}
	secJob := st.Cores[1].JobsOf(0)[0]
	// Security: runs [0,2), evicted, resumes [7, 15).
	if secJob.Finish != 15 {
		t.Fatalf("security completion = %v, want 15", secJob.Finish)
	}
	if secJob.Preemptions != 1 {
		t.Fatalf("security preemptions = %d, want 1", secJob.Preemptions)
	}
}

// Property: on a single core, global-slack and partitioned simulation agree
// for the same task system (global degenerates to partitioned), to the bit:
// every job field and the core's idle time.
func TestGlobalMatchesPartitionedSingleCoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := []TaskSpec{
			{Name: "rt", C: 1 + 3*rng.Float64(), T: 10 + 10*rng.Float64(), Prio: 0},
			{Name: "rt2", C: 1 + 3*rng.Float64(), T: 15 + 15*rng.Float64(), Offset: 10 * rng.Float64(), Prio: 1},
		}
		sec := []TaskSpec{{Name: "s", C: 1 + 2*rng.Float64(), T: 30 + 30*rng.Float64(), Prio: 100, Kind: KindSecurity}}
		combined := append(append([]TaskSpec{}, rt...), sec...)
		pinned, err := SimulateCore(combined, 300)
		if err != nil {
			return false
		}
		global, err := SimulateGlobalSlack([][]TaskSpec{rt}, sec, 300)
		if err != nil {
			return false
		}
		if pinned.IdleTime != global.Cores[0].IdleTime {
			return false
		}
		for task := range combined {
			pj, gj := pinned.JobsOf(task), global.Cores[0].JobsOf(task)
			if task >= len(rt) {
				gj = global.Cores[1].JobsOf(task - len(rt))
			}
			if len(pj) != len(gj) {
				return false
			}
			for i, g := range gj {
				g.Task = task
				if g != pj[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
