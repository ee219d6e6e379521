package rts_test

import (
	"sync"
	"testing"

	"hydra/internal/rts"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
)

// rebuildReference builds a fresh state committing tasks in the given order —
// the cold reference every removal must be bit-identical to.
func rebuildReference(t *testing.T, tasks []rts.RTTask) *rts.AnalysisState {
	t.Helper()
	ref := rts.NewAnalysisState(1)
	for _, task := range tasks {
		if !ref.AddRT(0, task) {
			t.Fatalf("reference rebuild rejected task %q", task.Name)
		}
	}
	return ref
}

// TestRemoveRTMatchesColdRebuild is the remove-vs-rebuild property test:
// across randomized tasksets and random removal points, RemoveRT must leave
// the core bit-identical — response times, load fold, interferer list order —
// to a fresh state that committed the surviving tasks in the same arrival
// order and never saw the removed one.
func TestRemoveRTMatchesColdRebuild(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := stats.SplitRNG(4242, seed)
		util := 0.3 + 0.5*float64(seed%8)/8
		w, err := taskgen.Generate(taskgen.DefaultParams(1, util), rng)
		if err != nil {
			continue
		}
		st := rts.AcquireAnalysisState(1)
		var arrived []rts.RTTask
		for _, task := range w.RT {
			if st.AddRT(0, task) {
				arrived = append(arrived, task)
			}
		}
		if len(arrived) < 2 {
			rts.ReleaseAnalysisState(st)
			continue
		}
		// Commit a couple of security interferers so removal must preserve
		// the security tail of the interferer list too.
		st.CommitSecurity(0, 3, 900)
		st.CommitSecurity(0, 1.5, 1500)

		victim := rng.Intn(len(arrived))
		if !st.RemoveRT(0, arrived[victim]) {
			t.Fatalf("seed %d: RemoveRT did not find committed task %q", seed, arrived[victim].Name)
		}
		survivors := append(append([]rts.RTTask(nil), arrived[:victim]...), arrived[victim+1:]...)
		ref := rebuildReference(t, survivors)
		ref.CommitSecurity(0, 3, 900)
		ref.CommitSecurity(0, 1.5, 1500)
		compareCores(t, st, ref, len(survivors))

		// Re-adding the removed task arrives at the end of the order; the
		// state must match a cold build with that arrival order exactly.
		if st.AddRT(0, arrived[victim]) {
			readded := append(append([]rts.RTTask(nil), survivors...), arrived[victim])
			ref2 := rebuildReference(t, readded)
			ref2.CommitSecurity(0, 3, 900)
			ref2.CommitSecurity(0, 1.5, 1500)
			compareCores(t, st, ref2, len(readded))
		}
		rts.ReleaseAnalysisState(st)
	}
}

// compareCores asserts core 0 of two states is bit-identical in every
// externally observable quantity: memoized/derived response times, the Eq. 5
// load fold, the RT admission verdict for a probe, and the exact + linear
// security analyses over the full interferer list.
func compareCores(t *testing.T, got, want *rts.AnalysisState, n int) {
	t.Helper()
	if got.RTCount(0) != n || want.RTCount(0) != n {
		t.Fatalf("RT count: got %d, reference %d, want %d", got.RTCount(0), want.RTCount(0), n)
	}
	if g, w := got.RTLoad(0), want.RTLoad(0); g != w {
		t.Fatalf("load fold differs: got %+v, want %+v", g, w)
	}
	gr := got.RTResponseTimes(0, nil)
	wr := want.RTResponseTimes(0, nil)
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("response time %d differs: got %g, want %g", i, gr[i], wr[i])
		}
	}
	for _, probe := range []struct{ c, d rts.Time }{{2, 50}, {0.5, 8}, {10, 200}} {
		task := rts.RTTask{Name: "zz-probe", C: probe.c, T: probe.d, D: probe.d}
		if g, w := got.TryAddRT(0, task), want.TryAddRT(0, task); g != w {
			t.Fatalf("TryAddRT(%+v) differs: got %v, want %v", task, g, w)
		}
	}
	for _, probe := range []struct{ c, d rts.Time }{{4, 300}, {2, 2000}} {
		gr, gok, gconv := got.SecurityResponseTime(0, probe.c, probe.d)
		wr, wok, wconv := want.SecurityResponseTime(0, probe.c, probe.d)
		if gr != wr || gok != wok || gconv != wconv {
			t.Fatalf("security RTA (%g,%g) differs: got (%g,%v,%v), want (%g,%v,%v)",
				probe.c, probe.d, gr, gok, gconv, wr, wok, wconv)
		}
		if gl, wl := got.LinearSecurityBound(0, probe.c, probe.d), want.LinearSecurityBound(0, probe.c, probe.d); gl != wl {
			t.Fatalf("linear bound (%g,%g) differs: got %g, want %g", probe.c, probe.d, gl, wl)
		}
	}
}

// TestRemoveRTDoesNotLeakMemoizedEntries pins that a removed task's memoized
// analysis cannot influence later admits: a probe that fits only when the
// victim is gone must be admitted after RemoveRT, and the trial memo of a
// TryAddRT involving the victim must not leak into the commit that follows
// the removal.
func TestRemoveRTDoesNotLeakMemoizedEntries(t *testing.T) {
	st := rts.AcquireAnalysisState(1)
	defer rts.ReleaseAnalysisState(st)
	heavy := rts.NewRTTask("heavy", 6, 10)
	light := rts.NewRTTask("light", 1, 100)
	if !st.AddRT(0, heavy) || !st.AddRT(0, light) {
		t.Fatal("setup tasks must be schedulable")
	}
	probe := rts.NewRTTask("probe", 5, 10)
	if st.TryAddRT(0, probe) {
		t.Fatal("probe must not fit while heavy is committed")
	}
	// Leave a successful trial memo behind, then remove its subject's peer:
	// the memo must be invalidated by the rebuild.
	small := rts.NewRTTask("small", 0.5, 50)
	if !st.TryAddRT(0, small) {
		t.Fatal("small trial must succeed")
	}
	if !st.RemoveRT(0, heavy) {
		t.Fatal("heavy not found")
	}
	if !st.TryAddRT(0, probe) || !st.AddRT(0, probe) {
		t.Fatal("probe must fit once heavy is removed")
	}
	ref := rebuildReference(t, []rts.RTTask{light, probe})
	compareCores(t, st, ref, 2)
	if st.RemoveRT(0, heavy) {
		t.Fatal("second removal of heavy must report absence")
	}
}

// TestRemoveRTConcurrentStates hammers removal from many goroutines, each on
// its own pooled state (meaningful under -race), re-checking the rebuild
// against a cold reference every time.
func TestRemoveRTConcurrentStates(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seed := int64(0); seed < 6; seed++ {
				rng := stats.SplitRNG(int64(g)*131+5, seed)
				w, err := taskgen.Generate(taskgen.DefaultParams(1, 0.6), rng)
				if err != nil {
					continue
				}
				st := rts.AcquireAnalysisState(1)
				var arrived []rts.RTTask
				for _, task := range w.RT {
					if st.AddRT(0, task) {
						arrived = append(arrived, task)
					}
				}
				if len(arrived) > 1 {
					victim := rng.Intn(len(arrived))
					if !st.RemoveRT(0, arrived[victim]) {
						t.Errorf("goroutine %d seed %d: victim not found", g, seed)
					}
					survivors := append(append([]rts.RTTask(nil), arrived[:victim]...), arrived[victim+1:]...)
					ref := rts.NewAnalysisState(1)
					okAll := true
					for _, task := range survivors {
						okAll = okAll && ref.AddRT(0, task)
					}
					if okAll {
						gr := st.RTResponseTimes(0, nil)
						wr := ref.RTResponseTimes(0, nil)
						for i := range gr {
							if gr[i] != wr[i] {
								t.Errorf("goroutine %d seed %d: response %d differs", g, seed, i)
							}
						}
					}
				}
				rts.ReleaseAnalysisState(st)
			}
		}(g)
	}
	wg.Wait()
}
