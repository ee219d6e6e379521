package online_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hydra/internal/core"
	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
)

// benchmarkable base workload: small, schedulable, deterministic.
func baseWorkload(t testing.TB, m int, util float64, seed int64) *taskgen.Workload {
	t.Helper()
	rng := stats.SplitRNG(99, seed)
	w, err := taskgen.Generate(taskgen.DefaultParams(m, util), rng)
	if err != nil {
		t.Fatalf("generate workload: %v", err)
	}
	return w
}

// coldAllocation runs the scheme exactly like a fresh system creation would.
func coldAllocation(t *testing.T, scheme string, h partition.Heuristic, m int, rt []rts.RTTask, sec []rts.SecurityTask) ([]int, *core.Result) {
	t.Helper()
	p, err := partition.PartitionRT(rt, m, h)
	if err != nil {
		t.Fatalf("cold partition: %v", err)
	}
	in, err := core.NewInput(m, rt, p.CoreOf, sec)
	if err != nil {
		t.Fatal(err)
	}
	allocs, err := core.Resolve(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return p.CoreOf, allocs[0].Allocate(in)
}

// assertMatchesCold checks a snapshot's committed placements are bit-identical
// to a cold allocation of the same taskset.
func assertMatchesCold(t *testing.T, snap online.Snapshot) {
	t.Helper()
	rt := make([]rts.RTTask, len(snap.RT))
	for i := range snap.RT {
		rt[i] = snap.RT[i].Task
	}
	sec := make([]rts.SecurityTask, len(snap.Sec))
	secIdx := map[string]int{}
	for i := range snap.Sec {
		sec[i] = snap.Sec[i].Task
		secIdx[snap.Sec[i].Task.Name] = i
	}
	part, res := coldAllocation(t, snap.Scheme, snap.Heuristic, snap.M, rt, sec)
	if !res.Schedulable {
		t.Fatalf("cold run rejects the committed taskset: %s", res.Reason)
	}
	for i := range snap.RT {
		if snap.RT[i].Core != part[i] {
			t.Fatalf("rt task %q on core %d, cold run puts it on %d", snap.RT[i].Task.Name, snap.RT[i].Core, part[i])
		}
	}
	for name, i := range secIdx {
		if snap.Sec[i].Core != res.Assignment[i] || snap.Sec[i].Period != res.Periods[i] {
			t.Fatalf("security task %q: committed (core %d, period %g), cold run (core %d, period %g)",
				name, snap.Sec[i].Core, snap.Sec[i].Period, res.Assignment[i], res.Periods[i])
		}
	}
	if snap.Cumulative != res.Cumulative {
		t.Fatalf("cumulative tightness %g, cold run %g", snap.Cumulative, res.Cumulative)
	}
}

// TestCreateMatchesColdRun: a fresh system's committed state is exactly the
// cold allocation of its initial taskset.
func TestCreateMatchesColdRun(t *testing.T) {
	for seed := int64(1); seed < 8; seed++ {
		w := baseWorkload(t, 2, 1.0, seed)
		s, err := online.NewSystem("t", "hydra", partition.BestFit, 2, w.RT, nil, w.Sec)
		if err != nil {
			continue // infeasible draw: creation correctly failed
		}
		assertMatchesCold(t, s.Snapshot())
	}
}

// TestUnsupportedSchemeRejected: schemes without an incremental admission
// step are refused at creation with a message listing the supported set.
func TestUnsupportedSchemeRejected(t *testing.T) {
	for _, scheme := range []string{"opt", "singlecore", "hydra-np", "partition-best-fit", "bogus"} {
		if _, err := online.NewSystem("t", scheme, partition.BestFit, 2, nil, nil, nil); err == nil {
			t.Fatalf("scheme %q must be rejected", scheme)
		}
	}
	for _, scheme := range online.SupportedSchemes() {
		if _, err := online.NewSystem("t", scheme, partition.BestFit, 2, nil, nil, nil); err != nil {
			t.Fatalf("supported scheme %q rejected: %v", scheme, err)
		}
	}
}

// TestReachableStatesVerifyAndRestore: recovery refuses a snapshot that
// fails Verify and silently replays the log instead, so byte-equality
// recovery tests cannot see a wrong refusal. Random AddRT, AddSecurity,
// Remove and Reallocate sequences over every hosted scheme, heuristic and
// M in {2, 4} must therefore keep every state they reach verifiable and
// restorable (checkReachableOps). Arrivals come from a 0.9·M pool on top of
// a 0.4·M base, so some are rejected.
func TestReachableStatesVerifyAndRestore(t *testing.T) {
	var combos, ops, rejects int
	for _, scheme := range online.SupportedSchemes() {
		for _, h := range []partition.Heuristic{partition.BestFit, partition.FirstFit, partition.WorstFit, partition.NextFit} {
			for _, m := range []int{2, 4} {
				combos++
				seed := int64(2 * combos)
				rng := stats.SplitRNG(2100, seed)
				n := 100
				if scheme == "hydra-gp" {
					n = 20 // a solver run per (task, core)
				}
				rejects += checkReachableOps(t, reachableRun{scheme: scheme, h: h, m: m, seed: seed}, n, rng.Intn)
				ops += n
			}
		}
	}
	t.Logf("%d ops, %d rejections", ops, rejects)
	if rejects == 0 {
		t.Fatal("the pool must overload some arrivals")
	}
}

// reachableRun is one system of checkReachableOps: its scheme, heuristic,
// core count, auto-reallocate threshold and the seed of its workloads.
type reachableRun struct {
	scheme       string
	h            partition.Heuristic
	m            int
	reallocAfter int
	seed         int64
}

// checkReachableOps hosts a system on a 0.4·M base workload and runs n
// operations on it, each chosen by pick(k), which returns a value in
// [0, k). AddRT and AddSecurity take the next arrival from a 0.9·M pool,
// Remove takes a committed task (which may arrive again later), and the rest
// reallocate. After every op it checks that the state passes online.Verify,
// that RestoreSystem(PersistedState()) gives the same snapshot, and that
// every core a real-time arrival was refused on for an exact-RTA miss also
// fails rts.CoreSchedulable, on a fresh state, with the arrival added to
// that core's committed tasks: the incremental analysis refuses nothing the
// cold one admits. It returns the number of rejections.
func checkReachableOps(t *testing.T, run reachableRun, n int, pick func(int) int) (rejects int) {
	t.Helper()
	scheme, h, m := run.scheme, run.h, run.m
	base := baseWorkload(t, m, 0.4*float64(m), run.seed)
	pool := baseWorkload(t, m, 0.9*float64(m), run.seed+1)
	s, err := online.NewSystem("g", scheme, h, m, base.RT, nil, base.Sec)
	if err != nil {
		t.Fatalf("%s %v M=%d: create: %v", scheme, h, m, err)
	}
	s.SetReallocateAfter(run.reallocAfter)
	var pendRT []rts.RTTask
	var pendSec []rts.SecurityTask
	for _, task := range pool.RT {
		task.Name = "p-" + task.Name
		pendRT = append(pendRT, task)
	}
	for _, task := range pool.Sec {
		task.Name = "p-" + task.Name
		pendSec = append(pendSec, task)
	}
	for op := 0; op < n; op++ {
		var err error
		var arrival rts.RTTask
		snap := s.Snapshot()
		switch r := pick(20); {
		case r < 6 && len(pendRT) > 0:
			arrival = pendRT[0]
			_, err = s.AddRT(arrival)
			pendRT = pendRT[1:]
		case r < 13 && len(pendSec) > 0:
			_, err = s.AddSecurity(pendSec[0])
			pendSec = pendSec[1:]
		case r < 18 && len(snap.RT)+len(snap.Sec) > 0:
			// A removed task may arrive again later.
			if i := pick(len(snap.RT) + len(snap.Sec)); i < len(snap.RT) {
				_, err = s.Remove(snap.RT[i].Task.Name)
				pendRT = append(pendRT, snap.RT[i].Task)
			} else {
				_, err = s.Remove(snap.Sec[i-len(snap.RT)].Task.Name)
				pendSec = append(pendSec, snap.Sec[i-len(snap.RT)].Task)
			}
		default:
			_, _ = s.Reallocate() // bin packing is not monotone: a refusal keeps the state
		}
		var rej *online.Rejection
		if errors.As(err, &rej) {
			rejects++
			for _, v := range rej.Cores {
				if rej.Kind != online.KindRT || !strings.Contains(v.Reason, "exact RTA") {
					continue
				}
				core := []rts.RTTask{arrival}
				for _, p := range snap.RT {
					if p.Core == v.Core {
						core = append(core, p.Task)
					}
				}
				if rts.CoreSchedulable(core) {
					t.Fatalf("%s %v M=%d op %d: %q refused on core %d for an exact-RTA miss, but a cold analysis admits it",
						scheme, h, m, op, arrival.Name, v.Core)
				}
			}
		} else if err != nil {
			t.Fatalf("%s %v M=%d op %d: %v", scheme, h, m, op, err)
		}
		after := s.Snapshot()
		if err := online.Verify(after); err != nil {
			t.Fatalf("%s %v M=%d op %d: reachable state fails Verify: %v", scheme, h, m, op, err)
		}
		restored, err := online.RestoreSystem("g", scheme, h, m, run.reallocAfter, s.PersistedState())
		if err != nil {
			t.Fatalf("%s %v M=%d op %d: reachable state not restorable: %v", scheme, h, m, op, err)
		}
		if got := restored.Snapshot(); !reflect.DeepEqual(got, after) {
			t.Fatalf("%s %v M=%d op %d: restored state differs:\n%+v\nwant\n%+v", scheme, h, m, op, got, after)
		}
	}
	return rejects
}

// FuzzOnlineOps is checkReachableOps with the fuzzer's bytes as the choice
// source: the first four pick the scheme, the heuristic, M in 2..5 and the
// auto-reallocate threshold (0, off, to 3), the fifth the workload seed, and
// each later byte one choice. The committed corpus reaches rejections under
// every scheme.
func FuzzOnlineOps(f *testing.F) {
	schemes := online.SupportedSchemes()
	heuristics := []partition.Heuristic{partition.BestFit, partition.FirstFit, partition.WorstFit, partition.NextFit}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		run := reachableRun{
			scheme:       schemes[int(data[0])%len(schemes)],
			h:            heuristics[data[1]%4],
			m:            2 + int(data[2]%4),
			reallocAfter: int(data[3] % 4),
			seed:         int64(data[4]),
		}
		choices := data[5:]
		n := min(len(choices), 64)
		if run.scheme == "hydra-gp" {
			n = min(n, 16) // a solver run per (task, core)
		}
		next := 0
		pick := func(k int) int {
			b := choices[next%len(choices)]
			next++
			return int(b) % k
		}
		rejects := checkReachableOps(t, run, n, pick)
		t.Logf("%+v: %d ops, %d rejections", run, n, rejects)
	})
}

// TestChurnThenReallocateMatchesCold is the acceptance-criterion test: a
// remove/readd/reallocate sequence lands on a committed state byte-identical
// to a cold run of the scheme on the surviving taskset.
func TestChurnThenReallocateMatchesCold(t *testing.T) {
	w := baseWorkload(t, 2, 0.9, 3)
	s, err := online.NewSystem("churn", "hydra", partition.BestFit, 2, w.RT, nil, w.Sec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	rng := stats.SplitRNG(7, 7)
	added := 0
	for op := 0; op < 60; op++ {
		snap := s.Snapshot()
		if len(snap.Sec) > 0 && rng.Float64() < 0.4 {
			victim := snap.Sec[rng.Intn(len(snap.Sec))].Task.Name
			if _, err := s.Remove(victim); err != nil {
				t.Fatalf("remove %q: %v", victim, err)
			}
		} else {
			tdes := 1000 + 2000*rng.Float64()
			task := rts.SecurityTask{
				Name: fmt.Sprintf("dyn%03d", op),
				C:    (0.002 + 0.03*rng.Float64()) * tdes,
				TDes: tdes,
				TMax: 10 * tdes,
			}
			if _, err := s.AddSecurity(task); err != nil {
				var rej *online.Rejection
				if !errors.As(err, &rej) {
					t.Fatalf("add: %v", err)
				}
			} else {
				added++
			}
		}
		if err := online.Verify(s.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if added == 0 {
		t.Fatal("no dynamic task was ever admitted; test exercises nothing")
	}
	snap, err := s.Reallocate()
	if err != nil {
		t.Fatalf("reallocate: %v", err)
	}
	assertMatchesCold(t, snap)
	if err := online.Verify(snap); err != nil {
		t.Fatal(err)
	}
	// A second reallocate is a fixed point: same committed state again.
	again, err := s.Reallocate()
	if err != nil {
		t.Fatalf("second reallocate: %v", err)
	}
	again.Version = snap.Version
	if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", snap) {
		t.Fatal("reallocate is not a fixed point")
	}
}

// TestRemoveDistinguishesEqualValuedSecurityTasks: two distinct committed
// security tasks sharing (C, adapted period) on one core — removing either
// one must keep every other task's commit-order position, so the admission
// folds stay bit-identical to a system that never saw the removed task.
func TestRemoveDistinguishesEqualValuedSecurityTasks(t *testing.T) {
	rt := []rts.RTTask{rts.NewRTTask("ctl", 2, 20)}
	mk := func(name string) rts.SecurityTask {
		return rts.SecurityTask{Name: name, C: 5, TDes: 500, TMax: 5000}
	}
	build := func(secs ...string) *online.System {
		s, err := online.NewSystem("t", "hydra", partition.BestFit, 1, rt, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range secs {
			if _, err := s.AddSecurity(mk(name)); err != nil {
				t.Fatalf("add %s: %v", name, err)
			}
			// An in-between distinct task so the duplicates are not adjacent.
			if name == "twin-a" {
				if _, err := s.AddSecurity(rts.SecurityTask{Name: "mid", C: 3, TDes: 700, TMax: 7000}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	s := build("twin-a", "twin-b")
	if _, err := s.Remove("twin-b"); err != nil {
		t.Fatal(err)
	}
	ref := build("twin-a")
	got, _ := json.Marshal(s.Snapshot().Sec)
	want, _ := json.Marshal(ref.Snapshot().Sec)
	if !bytes.Equal(got, want) {
		t.Fatalf("after removing twin-b:\n%s\nwant\n%s", got, want)
	}
	// Further admissions must agree with the reference (same commit-order
	// load folds).
	pa, err1 := s.AddSecurity(rts.SecurityTask{Name: "probe", C: 4, TDes: 600, TMax: 6000})
	pb, err2 := ref.AddSecurity(rts.SecurityTask{Name: "probe", C: 4, TDes: 600, TMax: 6000})
	if (err1 == nil) != (err2 == nil) || pa.Core != pb.Core || pa.Period != pb.Period {
		t.Fatalf("post-removal admission diverges: (%+v, %v) vs (%+v, %v)", pa, err1, pb, err2)
	}

	// The earlier twin: the survivors keep their order, and later admissions
	// (placements and rejection verdicts alike) decide as on a system
	// restored from exactly that list.
	s = build("twin-a", "twin-b")
	pre := s.Snapshot()
	if len(pre.Sec) != 3 || pre.Sec[0].Period != pre.Sec[2].Period {
		t.Fatalf("twins must share their adapted period: %+v", pre.Sec)
	}
	if _, err := s.Remove("twin-a"); err != nil {
		t.Fatal(err)
	}
	var survivors []online.PlacedSec
	for _, p := range pre.Sec {
		if p.Task.Name != "twin-a" {
			survivors = append(survivors, p)
		}
	}
	post := s.Snapshot()
	if !reflect.DeepEqual(post.Sec, survivors) {
		t.Fatalf("after removing twin-a:\n%+v\nwant\n%+v", post.Sec, survivors)
	}
	restored, err := online.RestoreSystem("t", "hydra", partition.BestFit, 1, 0,
		online.PersistedState{Version: post.Version, RT: post.RT, Sec: survivors})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []rts.SecurityTask{
		{Name: "probe", C: 4, TDes: 600, TMax: 6000},
		{Name: "huge", C: 590, TDes: 600, TMax: 610},
	} {
		pa, err1 := s.AddSecurity(probe)
		pb, err2 := restored.AddSecurity(probe)
		if pa != pb || !reflect.DeepEqual(err1, err2) {
			t.Fatalf("%s after removing twin-a: (%+v, %v), restored system (%+v, %v)", probe.Name, pa, err1, pb, err2)
		}
		var rej *online.Rejection
		if admitted := err1 == nil; admitted != (probe.Name == "probe") || (!admitted && !errors.As(err1, &rej)) {
			t.Fatalf("%s: admitted %v (%v); want probe admitted, huge rejected", probe.Name, admitted, err1)
		}
	}
}

// TestPinnedPartitionHonored: a caller-pinned RT partition seeds the
// committed placements verbatim (where the heuristic would choose
// differently), and an unschedulable or malformed pin is rejected.
func TestPinnedPartitionHonored(t *testing.T) {
	rt := []rts.RTTask{rts.NewRTTask("a", 1, 10), rts.NewRTTask("b", 1, 10)}
	s, err := online.NewSystem("t", "hydra", partition.BestFit, 2, rt, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.RT[0].Core != 0 || snap.RT[1].Core != 1 {
		t.Fatalf("pinned placement not honored: %+v", snap.RT)
	}
	// Best-fit would have packed both on core 0; prove the pin overrode it.
	auto, err := online.NewSystem("t", "hydra", partition.BestFit, 2, rt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if autoSnap := auto.Snapshot(); autoSnap.RT[0].Core != autoSnap.RT[1].Core {
		t.Fatalf("premise broken: heuristic no longer co-locates: %+v", autoSnap.RT)
	}
	// Unschedulable pin: two 60%-utilization tasks forced onto one core.
	heavy := []rts.RTTask{rts.NewRTTask("x", 6, 10), rts.NewRTTask("y", 6, 10)}
	if _, err := online.NewSystem("t", "hydra", partition.BestFit, 2, heavy, []int{0, 0}, nil); err == nil {
		t.Fatal("unschedulable pinned partition must be rejected")
	}
	if _, err := online.NewSystem("t", "hydra", partition.BestFit, 2, rt, []int{0}, nil); err == nil {
		t.Fatal("short pinned partition must be rejected")
	}
	if _, err := online.NewSystem("t", "hydra", partition.BestFit, 2, rt, []int{0, 5}, nil); err == nil {
		t.Fatal("out-of-range pinned core must be rejected")
	}
}

// TestRemoveRTColdReseed: removing a real-time task frees capacity that a
// subsequent admission can use, and the committed folds match a from-scratch
// derivation.
func TestRemoveRTColdReseed(t *testing.T) {
	rt := []rts.RTTask{
		rts.NewRTTask("heavy", 6, 10),
		rts.NewRTTask("light", 1, 100),
	}
	s, err := online.NewSystem("t", "hydra", partition.BestFit, 1, rt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := rts.NewRTTask("probe", 5, 10)
	if _, err := s.AddRT(probe); err == nil {
		t.Fatal("probe must not fit while heavy is committed")
	}
	if _, err := s.Remove("heavy"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRT(probe); err != nil {
		t.Fatalf("probe must fit after removal: %v", err)
	}
	if _, err := s.Remove("nope"); !errors.Is(err, online.ErrNotFound) {
		t.Fatalf("removing an unknown task: err = %v, want ErrNotFound", err)
	}
}

// TestAddRTGuardsCommittedSecurityPeriods: an RT arrival that would push a
// committed (tightly adapted) security task past its period contract is
// rejected with a structured verdict naming the task, and a reallocate
// admits it by re-tuning the periods.
func TestAddRTGuardsCommittedSecurityPeriods(t *testing.T) {
	rt := []rts.RTTask{rts.NewRTTask("ctl", 5, 20)}
	sec := []rts.SecurityTask{{Name: "tw", C: 50, TDes: 60, TMax: 10000}}
	s, err := online.NewSystem("t", "hydra", partition.BestFit, 1, rt, nil, sec)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Sec[0].Period <= snap.Sec[0].Task.TDes {
		t.Fatalf("setup: expected a tightly adapted period, got %g", snap.Sec[0].Period)
	}
	_, err = s.AddRT(rts.NewRTTask("nav", 4, 40))
	var rej *online.Rejection
	if !errors.As(err, &rej) {
		t.Fatalf("want *Rejection, got %v", err)
	}
	if rej.Kind != online.KindRT || len(rej.Cores) != 1 || rej.Cores[0].Core != 0 {
		t.Fatalf("unexpected rejection shape: %+v", rej)
	}
	if want := `committed security task "tw"`; !bytes.Contains([]byte(rej.Cores[0].Reason), []byte(want)) {
		t.Fatalf("verdict %q does not name the violated task", rej.Cores[0].Reason)
	}
}

// TestSecurityRejectionStructured pins the per-core verdicts of a security
// rejection.
func TestSecurityRejectionStructured(t *testing.T) {
	rt := []rts.RTTask{rts.NewRTTask("a", 9, 10), rts.NewRTTask("b", 9, 10)}
	s, err := online.NewSystem("t", "hydra", partition.BestFit, 2, rt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.AddSecurity(rts.SecurityTask{Name: "fat", C: 90, TDes: 100, TMax: 120})
	var rej *online.Rejection
	if !errors.As(err, &rej) {
		t.Fatalf("want *Rejection, got %v", err)
	}
	if len(rej.Cores) != 2 || rej.Cores[0].Core != 0 || rej.Cores[1].Core != 1 {
		t.Fatalf("want one verdict per core, got %+v", rej.Cores)
	}
	if rej.Version == 0 {
		t.Fatal("rejection must carry its event version")
	}
}

// opScript applies a deterministic op sequence; used twice to prove replay
// determinism.
func opScript(t *testing.T, s *online.System, seed int64) {
	t.Helper()
	rng := stats.SplitRNG(55, seed)
	for op := 0; op < 40; op++ {
		switch {
		case op%7 == 3:
			snap := s.Snapshot()
			if len(snap.Sec) > 0 {
				if _, err := s.Remove(snap.Sec[rng.Intn(len(snap.Sec))].Task.Name); err != nil {
					t.Fatal(err)
				}
			}
		case op%11 == 5:
			if _, err := s.Reallocate(); err != nil {
				t.Fatal(err)
			}
		default:
			tdes := 1000 + 2000*rng.Float64()
			task := rts.SecurityTask{
				Name: fmt.Sprintf("dyn%03d", op),
				C:    (0.002 + 0.02*rng.Float64()) * tdes,
				TDes: tdes,
				TMax: 10 * tdes,
			}
			_, err := s.AddSecurity(task)
			var rej *online.Rejection
			if err != nil && !errors.As(err, &rej) {
				t.Fatal(err)
			}
		}
	}
}

// TestSerializedReplayDeterminism: the same op sequence on two fresh systems
// produces byte-identical snapshots and event logs.
func TestSerializedReplayDeterminism(t *testing.T) {
	w := baseWorkload(t, 2, 0.8, 11)
	run := func() ([]byte, []byte) {
		s, err := online.NewSystem("replay", "hydra-least-loaded", partition.BestFit, 2, w.RT, nil, w.Sec)
		if err != nil {
			t.Fatal(err)
		}
		opScript(t, s, 1)
		snap, _ := json.Marshal(s.Snapshot())
		events, _ := s.EventsSince(0)
		ev, _ := json.Marshal(events)
		return snap, ev
	}
	snap1, ev1 := run()
	snap2, ev2 := run()
	if !bytes.Equal(snap1, snap2) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", snap1, snap2)
	}
	if !bytes.Equal(ev1, ev2) {
		t.Fatalf("event logs differ:\n%s\nvs\n%s", ev1, ev2)
	}
}

// TestConcurrentAdmitsHammer fires concurrent adds/removes at one system
// (run with -race): per-system locking must serialize them into a contiguous
// monotone event log, duplicate names must collapse to exactly one admit,
// and the final committed state must verify from scratch.
func TestConcurrentAdmitsHammer(t *testing.T) {
	w := baseWorkload(t, 2, 0.6, 21)
	s, err := online.NewSystem("hammer", "hydra", partition.BestFit, 2, w.RT, nil, w.Sec)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Version()
	const goroutines = 16
	var admitsOfShared int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Everybody races to add the same task name...
			if _, err := s.AddSecurity(rts.SecurityTask{Name: "shared", C: 0.5, TDes: 2000, TMax: 20000}); err == nil {
				mu.Lock()
				admitsOfShared++
				mu.Unlock()
			} else if !errors.Is(err, online.ErrDuplicateName) {
				var rej *online.Rejection
				if !errors.As(err, &rej) {
					t.Errorf("goroutine %d: %v", g, err)
				}
			}
			// ...then churns its own tasks.
			name := fmt.Sprintf("g%02d", g)
			if _, err := s.AddSecurity(rts.SecurityTask{Name: name, C: 0.2, TDes: 2500, TMax: 25000}); err == nil {
				if _, err := s.Remove(name); err != nil {
					t.Errorf("goroutine %d remove: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if admitsOfShared != 1 {
		t.Fatalf("shared task admitted %d times, want exactly 1", admitsOfShared)
	}
	events, _ := s.EventsSince(base)
	for i := 1; i < len(events); i++ {
		if events[i].Version != events[i-1].Version+1 {
			t.Fatalf("event versions not contiguous: %d then %d", events[i-1].Version, events[i].Version)
		}
	}
	if s.Version() != base+uint64(len(events)) {
		t.Fatalf("version %d does not match %d logged events after %d", s.Version(), len(events), base)
	}
	if err := online.Verify(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// fragmentedSystem builds the canonical defragmentation scenario on two
// cores under first-feasible packing: a2 and a3 end up on different cores
// after a removal, so a big arrival with a narrow period window fits neither
// core warm, while a cold re-pack stacks a2+a3 together and frees a core.
func fragmentedSystem(t *testing.T, reallocAfter int) *online.System {
	t.Helper()
	s, err := online.NewSystem("frag", "hydra-first-feasible", partition.BestFit, 2, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetReallocateAfter(reallocAfter)
	for _, task := range []rts.SecurityTask{
		{Name: "a1", C: 10, TDes: 50, TMax: 300},
		{Name: "a2", C: 30, TDes: 100, TMax: 300},
		{Name: "a3", C: 60, TDes: 100, TMax: 130},
	} {
		if _, err := s.AddSecurity(task); err != nil {
			t.Fatalf("admit %s: %v", task.Name, err)
		}
	}
	if _, err := s.Remove("a1"); err != nil {
		t.Fatal(err)
	}
	return s
}

// bigArrival is the admission that fails on the fragmented warm state but
// succeeds after a reallocation re-packs a2+a3 onto one core.
var bigArrival = rts.SecurityTask{Name: "b", C: 70, TDes: 100, TMax: 130}

// TestReallocateUnlocksRejectedAdmit pins the escape-hatch claim directly:
// the fragmented state rejects the arrival, an explicit Reallocate re-packs
// the committed tasks, and the identical arrival then admits.
func TestReallocateUnlocksRejectedAdmit(t *testing.T) {
	s := fragmentedSystem(t, 0)
	var rej *online.Rejection
	if _, err := s.AddSecurity(bigArrival); !errors.As(err, &rej) {
		t.Fatalf("warm admit: got %v, want a rejection", err)
	}
	if _, err := s.Reallocate(); err != nil {
		t.Fatal(err)
	}
	p, err := s.AddSecurity(bigArrival)
	if err != nil {
		t.Fatalf("post-reallocate admit: %v", err)
	}
	if p.Period != 100 {
		t.Fatalf("post-reallocate placement %+v, want period 100", p)
	}
	if err := online.Verify(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// TestAutoReallocateAfterRejects covers the ReallocateAfter policy knob: with
// the threshold at 1, the rejected arrival triggers reallocate-and-retry
// inside AddSecurity itself and the caller sees a clean admit, with the
// decision log reading reject -> reallocate -> admit at contiguous versions.
func TestAutoReallocateAfterRejects(t *testing.T) {
	s := fragmentedSystem(t, 1)
	if got := s.ReallocateAfter(); got != 1 {
		t.Fatalf("ReallocateAfter() = %d, want 1", got)
	}
	base := s.Version()
	p, err := s.AddSecurity(bigArrival)
	if err != nil {
		t.Fatalf("auto-reallocate admit: %v", err)
	}
	events, _ := s.EventsSince(base)
	if len(events) != 3 ||
		events[0].Type != online.EventReject ||
		events[1].Type != online.EventReallocate ||
		events[2].Type != online.EventAdmit {
		t.Fatalf("event sequence %+v, want reject/reallocate/admit", events)
	}
	if p.Version != events[2].Version || events[2].Version != base+3 {
		t.Fatalf("admit version %d, want %d", p.Version, base+3)
	}
	if err := online.Verify(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// TestAutoReallocateThresholdAndStreak: below the threshold nothing happens;
// admits reset the rejection streak; and when the retry still rejects (an
// RT-frozen core a reallocation cannot unfreeze — the security period
// re-tightens to the same value), the caller gets the original rejection.
func TestAutoReallocateThresholdAndStreak(t *testing.T) {
	s := fragmentedSystem(t, 3)
	base := s.Version()
	// Two rejections stay below the threshold: no reallocate event.
	for i := 0; i < 2; i++ {
		if _, err := s.AddSecurity(bigArrival); err == nil {
			t.Fatal("warm admit must reject")
		}
	}
	events, _ := s.EventsSince(base)
	for _, e := range events {
		if e.Type == online.EventReallocate {
			t.Fatalf("reallocated below threshold: %+v", events)
		}
	}
	// An admit resets the streak, so two more rejections still stay below.
	if _, err := s.AddSecurity(rts.SecurityTask{Name: "small", C: 1, TDes: 400, TMax: 500}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.AddSecurity(bigArrival); err == nil {
			t.Fatal("warm admit must reject")
		}
	}
	events, _ = s.EventsSince(base)
	for _, e := range events {
		if e.Type == online.EventReallocate {
			t.Fatalf("streak not reset by admit: %+v", events)
		}
	}

	// A frozen single core: the security period is interference-bound, so a
	// reallocation re-derives the same tight period and the RT retry fails
	// again — the caller sees the original rejection, after a logged
	// reallocate attempt.
	frozen, err := online.NewSystem("frozen", "hydra", partition.BestFit, 1,
		[]rts.RTTask{{Name: "r0", C: 30, T: 100, D: 100}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	frozen.SetReallocateAfter(1)
	// The RT interference pushes the adapted period above TDes, so the
	// minimal feasible period binds exactly — zero slack.
	if _, err := frozen.AddSecurity(rts.SecurityTask{Name: "tight", C: 10, TDes: 50, TMax: 1000}); err != nil {
		t.Fatal(err)
	}
	base = frozen.Version()
	var rej *online.Rejection
	if _, err := frozen.AddRT(rts.RTTask{Name: "r", C: 1, T: 100, D: 100}); !errors.As(err, &rej) {
		t.Fatalf("frozen-core rt admit: got %v, want a rejection", err)
	}
	events, _ = frozen.EventsSince(base)
	if len(events) != 2 || events[0].Type != online.EventReject || events[1].Type != online.EventReallocate {
		t.Fatalf("event sequence %+v, want reject then reallocate", events)
	}
	if err := online.Verify(frozen.Snapshot()); err != nil {
		t.Fatal(err)
	}
}
