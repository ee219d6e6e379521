package rts_test

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hydra/internal/rts"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
)

// coldResponseTimes is the historical analysis: copy, sort rate-monotonic,
// run every RTA fixed point from a cold start.
func coldResponseTimes(tasks []rts.RTTask) ([]rts.Time, bool) {
	sorted := append([]rts.RTTask(nil), tasks...)
	rts.SortRateMonotonic(sorted)
	out := make([]rts.Time, len(sorted))
	ok := true
	for i, t := range sorted {
		r, sched := rts.ResponseTime(t.C, t.D, sorted[:i])
		out[i] = r
		if !sched {
			ok = false
			break
		}
	}
	return out, ok
}

// TestWarmStartMatchesColdRandomized is the warm-start property test of the
// incremental analysis state: across randomized tasksets (fresh taskgen
// streams), committing tasks one at a time — where every commit re-derives
// the lower-priority response times warm-started from their memoized fixed
// points — must yield response times exactly equal (==, not approximately)
// to the cold-started analysis of the final task set, and the same
// schedulability verdict as CoreSchedulable.
func TestWarmStartMatchesColdRandomized(t *testing.T) {
	refusals := 0
	for seed := int64(0); seed < 80; seed++ {
		rng := stats.SplitRNG(2024, seed)
		// Mix of loads: sweep utilization up so both schedulable and
		// unschedulable single-core sets appear. The first 40 draws keep the
		// real-time utilization at or below about 0.62, which AddRT never
		// refuses; the draws at a total utilization of 1.2 and 1.3 reach
		// the refusal branch.
		util := 0.3 + 0.65*float64(seed%10)/10
		if seed >= 40 {
			util = 1.2 + 0.1*float64(seed%2)
		}
		w, err := taskgen.Generate(taskgen.DefaultParams(1, util), rng)
		if err != nil {
			continue
		}
		if checkWarmMatchesCold(t, w.RT, rng) {
			refusals++
		}
	}
	t.Logf("%d randomized sets refused", refusals)
	if refusals == 0 {
		t.Fatal("no randomized set reached the refusal branch")
	}
}

// checkWarmMatchesCold commits tasks in a random order and reports whether
// AddRT refused one of them.
func checkWarmMatchesCold(t *testing.T, tasks []rts.RTTask, rng *rand.Rand) bool {
	t.Helper()
	st := rts.AcquireAnalysisState(1)
	defer rts.ReleaseAnalysisState(st)
	// The twin probes with TryAddRT before each AddRT, so its commits reuse
	// the trial, while st's AddRT runs the analysis itself. After every call
	// both must hold the same response times and load; after a refusal, the
	// ones they held before it.
	twin := rts.AcquireAnalysisState(1)
	defer rts.ReleaseAnalysisState(twin)
	commit := func(task rts.RTTask) bool {
		t.Helper()
		before, beforeLoad := st.RTResponseTimes(0, nil), st.RTLoad(0)
		probed := twin.TryAddRT(0, task)
		ok := st.AddRT(0, task)
		if twinOK := twin.AddRT(0, task); probed != ok || twinOK != ok {
			t.Fatalf("task %q: AddRT %v, twin probe %v and commit %v", task.Name, ok, probed, twinOK)
		}
		want, wantLoad := before, beforeLoad
		if ok {
			want, wantLoad = st.RTResponseTimes(0, nil), st.RTLoad(0)
		}
		for _, s := range []*rts.AnalysisState{st, twin} {
			if got := s.RTResponseTimes(0, nil); !slices.Equal(got, want) || s.RTLoad(0) != wantLoad {
				t.Fatalf("task %q (admitted %v): responses %v load %+v, want %v load %+v",
					task.Name, ok, got, s.RTLoad(0), want, wantLoad)
			}
		}
		return ok
	}

	// Commit in a random order — the state's verdicts must not depend on
	// arrival order, only on the committed set.
	order := rng.Perm(len(tasks))
	warmOK := true
	committed := 0
	for _, i := range order {
		if !commit(tasks[i]) {
			warmOK = false
			break
		}
		committed++

		// Invariant after every commit: memoized (warm-started) response
		// times equal the cold analysis of the currently committed prefix.
		prefix := make([]rts.RTTask, 0, committed)
		for _, j := range order[:committed] {
			prefix = append(prefix, tasks[j])
		}
		cold, coldOK := coldResponseTimes(prefix)
		if !coldOK {
			t.Fatalf("cold analysis rejects a prefix the incremental state accepted (%d tasks)", committed)
		}
		warm := st.RTResponseTimes(0, nil)
		if len(warm) != len(cold) {
			t.Fatalf("response-time count: warm %d, cold %d", len(warm), len(cold))
		}
		for k := range warm {
			if warm[k] != cold[k] {
				t.Fatalf("task %d after %d commits: warm response %g != cold response %g", k, committed, warm[k], cold[k])
			}
		}
	}
	if !warmOK {
		// AddRT refused a task: the full set must also fail the historical
		// analysis with that task included on the core.
		withNext := make([]rts.RTTask, 0, committed+1)
		for _, j := range order[:committed+1] {
			withNext = append(withNext, tasks[j])
		}
		if rts.CoreSchedulable(withNext) {
			t.Fatalf("incremental state rejected a set CoreSchedulable accepts (%d tasks)", len(withNext))
		}
	}
	if committed == 0 {
		return !warmOK
	}
	// Two arrivals no non-empty core admits: a lowest-priority task with no
	// slack, and a highest-priority one that leaves the others none.
	minT, maxT := math.Inf(1), 0.0
	for _, j := range order[:committed] {
		minT, maxT = math.Min(minT, tasks[j].T), math.Max(maxT, tasks[j].T)
	}
	for _, task := range []rts.RTTask{rts.NewRTTask("tail", 2*maxT, 2*maxT), rts.NewRTTask("hog", minT, minT)} {
		if commit(task) {
			t.Fatalf("task %q admitted onto %d committed tasks", task.Name, committed)
		}
	}
	return !warmOK
}

// TestTryAddRTMatchesCoreSchedulable cross-checks the admission trial against
// the set-based verdict on randomized two-core placements.
func TestTryAddRTMatchesCoreSchedulable(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := stats.SplitRNG(77, seed)
		util := 0.5 + 1.2*float64(seed%6)/6
		w, err := taskgen.Generate(taskgen.DefaultParams(2, util), rng)
		if err != nil {
			continue
		}
		st := rts.AcquireAnalysisState(2)
		var on0, on1 []rts.RTTask
		for i, task := range w.RT {
			c := i % 2
			trial := append(append([]rts.RTTask(nil), map[int][]rts.RTTask{0: on0, 1: on1}[c]...), task)
			want := rts.CoreSchedulable(trial)
			if got := st.TryAddRT(c, task); got != want {
				t.Fatalf("seed %d task %d core %d: TryAddRT=%v, CoreSchedulable=%v", seed, i, c, got, want)
			}
			if want {
				if !st.AddRT(c, task) {
					t.Fatalf("seed %d task %d: AddRT refused an admitted task", seed, i)
				}
				if c == 0 {
					on0 = append(on0, task)
				} else {
					on1 = append(on1, task)
				}
			}
		}
		rts.ReleaseAnalysisState(st)
	}
}

// TestSecurityResponseTimeMatchesSliceAnalysis pins the state's exact
// security RTA (interferers iterated in seed/commit order) against the
// slice-based ExactSecurityResponseTimeFull on the identical interferer
// list, including the divergence contract.
func TestSecurityResponseTimeMatchesSliceAnalysis(t *testing.T) {
	st := rts.AcquireAnalysisState(1)
	defer rts.ReleaseAnalysisState(st)
	rtTasks := []rts.RTTask{
		rts.NewRTTask("b", 2, 14),
		rts.NewRTTask("a", 1, 9),
		rts.NewRTTask("c", 3, 40),
	}
	var hp []rts.InterferingTask
	for _, task := range rtTasks {
		st.SeedRT(0, task)
		hp = append(hp, rts.InterferingTask{C: task.C, T: task.T})
	}
	secs := []struct{ c, ts rts.Time }{{5, 120}, {2, 60}, {8, 400}}
	for _, s := range secs {
		wantR, wantOK, wantConv := rts.ExactSecurityResponseTimeFull(s.c, s.ts, hp)
		gotR, gotOK, gotConv := st.SecurityResponseTime(0, s.c, s.ts)
		if gotR != wantR || gotOK != wantOK || gotConv != wantConv {
			t.Fatalf("security RTA (C=%g, T=%g): state (%g,%v,%v) != slice (%g,%v,%v)",
				s.c, s.ts, gotR, gotOK, gotConv, wantR, wantOK, wantConv)
		}
		if lin := st.LinearSecurityBound(0, s.c, s.ts); lin != rts.LinearSecurityResponseBound(s.c, s.ts, hp) {
			t.Fatalf("linear bound mismatch: %g", lin)
		}
		st.CommitSecurity(0, s.c, s.ts)
		hp = append(hp, rts.InterferingTask{C: s.c, T: s.ts})
	}
}

// TestAnalysisStatePoolConcurrent hammers the pool from many goroutines
// (meaningful under -race): every goroutine acquires its own state, runs an
// independent incremental analysis and checks it against the cold one.
func TestAnalysisStatePoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seed := int64(0); seed < 8; seed++ {
				rng := stats.SplitRNG(int64(g)*1000+9, seed)
				w, err := taskgen.Generate(taskgen.DefaultParams(1, 0.7), rng)
				if err != nil {
					continue
				}
				st := rts.AcquireAnalysisState(1)
				allOK := true
				for _, task := range w.RT {
					if !st.AddRT(0, task) {
						allOK = false
						break
					}
				}
				if want := rts.CoreSchedulable(w.RT); allOK != want && allOK {
					// allOK false can mean a prefix failed where the full set
					// also fails; only a spurious accept is a bug here.
					t.Errorf("goroutine %d seed %d: incremental accepted, cold rejects", g, seed)
				}
				rts.ReleaseAnalysisState(st)
			}
		}(g)
	}
	wg.Wait()
}

// TestSeedRTInvalidatesMemoizedResponses pins the SeedRT staleness fix: after
// a higher-priority seed arrives, the memoized fixed points of the tasks it
// preempts are only lower bounds, and RTResponseTimes re-derives them.
func TestSeedRTInvalidatesMemoizedResponses(t *testing.T) {
	st := rts.AcquireAnalysisState(1)
	defer rts.ReleaseAnalysisState(st)
	low := rts.NewRTTask("low", 2, 100)
	if !st.AddRT(0, low) {
		t.Fatal("low-priority task must be schedulable alone")
	}
	// Memoized now: resp(low) = 2. Seed a higher-priority interferer.
	st.SeedRT(0, rts.NewRTTask("high", 5, 10))
	got := st.RTResponseTimes(0, nil)
	want, _ := coldResponseTimes([]rts.RTTask{low, rts.NewRTTask("high", 5, 10)})
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("response times after late seed: got %v, want %v", got, want)
	}
}
