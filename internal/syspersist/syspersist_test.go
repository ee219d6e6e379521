package syspersist_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/stats"
	"hydra/internal/syspersist"
	"hydra/internal/taskgen"
	"hydra/internal/tasksetio"
)

// testWorkload draws a small deterministic schedulable taskset.
func testWorkload(t testing.TB, m int, util float64, seed int64) *taskgen.Workload {
	t.Helper()
	rng := stats.SplitRNG(99, seed)
	w, err := taskgen.Generate(taskgen.DefaultParams(m, util), rng)
	if err != nil {
		t.Fatalf("generate workload: %v", err)
	}
	return w
}

func openRegistry(t testing.TB, dir string, snapshotEvery int) *syspersist.Registry {
	t.Helper()
	r, err := syspersist.Open(syspersist.Options{Dir: dir, MaxSystems: 128, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// snapJSON serializes a system's committed state for byte comparison.
func snapJSON(t testing.TB, snap online.Snapshot) []byte {
	t.Helper()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// driveOps applies a deterministic mixed op sequence (admits of both kinds,
// removals, a reallocate) through fn, which either hits a DurableSystem or a
// shadow in-memory system. Errors from individual ops (rejections) are part
// of the sequence, not failures.
type opDriver interface {
	AddRT(rts.RTTask) (online.Placement, error)
	AddSecurity(rts.SecurityTask) (online.Placement, error)
	Remove(string) (online.Removed, error)
	Reallocate() (online.Snapshot, error)
}

func driveOps(w *taskgen.Workload, d opDriver, n int) {
	for i := 0; i < n; i++ {
		driveOp(w, d, i)
	}
}

// driveOp applies op i of driveOps' sequence.
func driveOp(w *taskgen.Workload, d opDriver, i int) {
	switch {
	case i%7 == 3 && i/7 < len(w.RT):
		_, _ = d.AddRT(w.RT[i/7])
	case i%5 == 4:
		if i/5 < len(w.Sec) {
			_, _ = d.Remove(w.Sec[i/5].Name)
		}
	case i%11 == 9:
		_, _ = d.Reallocate()
	default:
		if i < len(w.Sec) {
			_, _ = d.AddSecurity(w.Sec[i])
		} else {
			_, _ = d.AddSecurity(rts.SecurityTask{
				Name: fmt.Sprintf("extra-%d", i), C: 0.2, TDes: 2000 + float64(i), TMax: 30000,
			})
		}
	}
}

// shadow builds an in-memory system applying the same creation parameters a
// registry Create uses.
func shadow(t *testing.T, id string, m int) *online.System {
	t.Helper()
	s, err := online.NewSystem(id, "hydra", partition.BestFit, m, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertFutureDecisionsEqual applies identical probe mutations to both
// systems and requires byte-identical outcomes: placements, event types and
// versions, and final committed state. This is the real recovery contract —
// not just equal state, but an indistinguishable decision future.
func assertFutureDecisionsEqual(t *testing.T, got, want opDriver, gotEv, wantEv func(uint64) []online.Event, v0 uint64) {
	t.Helper()
	probeSec := rts.SecurityTask{Name: "probe-sec", C: 0.3, TDes: 1500, TMax: 25000}
	probeRT := rts.RTTask{Name: "probe-rt", C: 0.5, T: 400, D: 400}
	gp1, ge1 := got.AddSecurity(probeSec)
	wp1, we1 := want.AddSecurity(probeSec)
	if gp1 != wp1 || fmt.Sprint(ge1) != fmt.Sprint(we1) {
		t.Fatalf("probe security admit diverged: (%+v, %v) vs (%+v, %v)", gp1, ge1, wp1, we1)
	}
	gp2, ge2 := got.AddRT(probeRT)
	wp2, we2 := want.AddRT(probeRT)
	if gp2 != wp2 || fmt.Sprint(ge2) != fmt.Sprint(we2) {
		t.Fatalf("probe rt admit diverged: (%+v, %v) vs (%+v, %v)", gp2, ge2, wp2, we2)
	}
	gs, gerr := got.Reallocate()
	ws, werr := want.Reallocate()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("probe reallocate diverged: %v vs %v", gerr, werr)
	}
	if gerr == nil {
		gs.ID, ws.ID = "", ""
		if string(snapJSON(t, gs)) != string(snapJSON(t, ws)) {
			t.Fatalf("probe reallocate snapshots diverged:\n%s\nvs\n%s", snapJSON(t, gs), snapJSON(t, ws))
		}
	}
	g := gotEv(v0)
	wv := wantEv(v0)
	gj, _ := json.Marshal(g)
	wj, _ := json.Marshal(wv)
	if string(gj) != string(wj) {
		t.Fatalf("probe event logs diverged:\n%s\nvs\n%s", gj, wj)
	}
}

// eventsFn adapts EventsSince to drop the watch channel for comparisons.
func eventsFn(s interface {
	EventsSince(uint64) ([]online.Event, <-chan struct{})
}) func(uint64) []online.Event {
	return func(v uint64) []online.Event { ev, _ := s.EventsSince(v); return ev }
}

// TestKillRecoverDecisionIdentity is the kill/recover property test: drive a
// deterministic op mix on durable systems (with mid-sequence snapshots), drop
// the registry without any graceful flush — the crash — reopen the directory,
// and require every recovered system to be decision-identical to a shadow
// system that never restarted: same committed state, same event versions,
// and byte-identical outcomes for future admits and reallocations.
func TestKillRecoverDecisionIdentity(t *testing.T) {
	dir := t.TempDir()
	r := openRegistry(t, dir, 3) // snapshot every 3 ops: tails replay over snapshots
	const systems = 3
	type life struct {
		id     string
		w      *taskgen.Workload
		shadow *online.System
		vLive  uint64
	}
	lives := make([]*life, 0, systems)
	for i := 0; i < systems; i++ {
		id := fmt.Sprintf("sys-%d", i)
		w := testWorkload(t, 2, 0.5, int64(40+i))
		ds, err := r.Create(id, "hydra", partition.BestFit, 2, nil, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		sh := shadow(t, id, 2)
		driveOps(w, ds, 17+i)
		driveOps(w, sh, 17+i)
		if ds.Version() != sh.Version() {
			t.Fatalf("%s: live version %d, shadow %d", id, ds.Version(), sh.Version())
		}
		lives = append(lives, &life{id: id, w: w, shadow: sh, vLive: ds.Version()})
	}
	// Crash: no Close, no Flush. Reopen the same directory.
	r.Crash()
	r2 := openRegistry(t, dir, 3)
	defer r2.Close()
	for _, l := range lives {
		ds, ok := r2.Get(l.id)
		if !ok {
			t.Fatalf("system %s not recovered", l.id)
		}
		if ds.Version() != l.vLive {
			t.Fatalf("%s: recovered version %d, want %d", l.id, ds.Version(), l.vLive)
		}
		got := snapJSON(t, ds.Snapshot())
		want := snapJSON(t, l.shadow.Snapshot())
		if string(got) != string(want) {
			t.Fatalf("%s: recovered state diverged:\n%s\nvs\n%s", l.id, got, want)
		}
		assertFutureDecisionsEqual(t, ds, l.shadow, eventsFn(ds), eventsFn(l.shadow), l.vLive)
	}
}

// TestConcurrentDurableAdmitsRecoverExactly drives racing mutations at one
// durable system (run under -race): the wrapper lock must serialize
// append+apply pairs so the op log replays to exactly the live outcome, in
// whatever order the race resolved to.
func TestConcurrentDurableAdmitsRecoverExactly(t *testing.T) {
	dir := t.TempDir()
	r := openRegistry(t, dir, 5)
	ds, err := r.Create("hammer", "hydra", partition.BestFit, 2, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("g%d-%d", g, i)
				if _, err := ds.AddSecurity(rts.SecurityTask{Name: name, C: 0.2, TDes: 2000, TMax: 30000}); err == nil && i%2 == 1 {
					_, _ = ds.Remove(name)
				}
			}
		}(g)
	}
	wg.Wait()
	liveState := snapJSON(t, ds.Snapshot())
	liveVersion := ds.Version()
	// Crash and recover.
	r.Crash()
	r2 := openRegistry(t, dir, 5)
	defer r2.Close()
	got, ok := r2.Get("hammer")
	if !ok {
		t.Fatal("system not recovered")
	}
	if got.Version() != liveVersion {
		t.Fatalf("recovered version %d, want %d", got.Version(), liveVersion)
	}
	if string(snapJSON(t, got.Snapshot())) != string(liveState) {
		t.Fatalf("recovered state diverged:\n%s\nvs\n%s", snapJSON(t, got.Snapshot()), liveState)
	}
}

// TestRecoveryEdgeCases exercises the damaged-directory paths table-driven:
// each case corrupts one system's files after a crash-style stop, then
// recovery must produce exactly the state implied by the acknowledged,
// well-formed prefix.
func TestRecoveryEdgeCases(t *testing.T) {
	secTask := func(i int) rts.SecurityTask {
		return rts.SecurityTask{Name: fmt.Sprintf("s%d", i), C: 0.3, TDes: 1000 + float64(i), TMax: 20000}
	}
	// build creates a registry with one system and n admitted tasks, without
	// flushing, and returns the system dir plus the expected shadow.
	build := func(t *testing.T, dir string, n int) (string, *online.System) {
		r := openRegistry(t, dir, 1000) // no automatic snapshots unless the case writes one
		ds, err := r.Create("edge", "hydra", partition.BestFit, 2, nil, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		sh := shadow(t, "edge", 2)
		for i := 0; i < n; i++ {
			if _, err := ds.AddSecurity(secTask(i)); err != nil {
				t.Fatal(err)
			}
			if _, err := sh.AddSecurity(secTask(i)); err != nil {
				t.Fatal(err)
			}
		}
		r.Crash()
		return ds.Dir(), sh
	}
	cases := []struct {
		name   string
		ops    int
		mutate func(t *testing.T, sysDir string)
	}{
		{name: "clean-crash", ops: 4, mutate: func(t *testing.T, sysDir string) {}},
		{name: "torn-log-tail", ops: 4, mutate: func(t *testing.T, sysDir string) {
			// A half-written append: the op was never acknowledged, so
			// recovery must truncate it away and land on the 4-op state.
			f, err := os.OpenFile(filepath.Join(sysDir, "events.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"seq":5,"pre_version":6,"op":"add-sec`); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
		{name: "snapshot-newer-than-log", ops: 4, mutate: func(t *testing.T, sysDir string) {
			// A snapshot claiming ops the log does not contain (corrupt
			// version): it must be ignored in favor of full replay.
			sn := []byte(`{"seq":999,"version":999,"cursor":0,"rt_tasks":[],"security_tasks":[]}`)
			if err := os.WriteFile(filepath.Join(sysDir, "snapshot.json"), sn, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "snapshot-breaks-guarantee", ops: 4, mutate: func(t *testing.T, sysDir string) {
			// A well-formed snapshot of the 4-op state that covers the log,
			// but with one security task's period below its TDes: restoring
			// it would serve a state outside the guarantee, so it must be
			// ignored in favor of full replay.
			sh := shadow(t, "edge", 2)
			for i := 0; i < 4; i++ {
				if _, err := sh.AddSecurity(secTask(i)); err != nil {
					t.Fatal(err)
				}
			}
			ps := sh.Snapshot()
			sn := syspersist.SnapshotFile{Seq: 4, Version: ps.Version, Cursor: ps.Cursor, RTTasks: []syspersist.PlacedRTJSON{}}
			for _, p := range ps.Sec {
				sn.SecurityTasks = append(sn.SecurityTasks, syspersist.PlacedSecJSON{Core: p.Core, PeriodMS: p.Period,
					SecurityTaskJSON: tasksetio.SecurityTaskJSON{Name: p.Task.Name, WCET: p.Task.C, DesiredPeriod: p.Task.TDes, MaxPeriod: p.Task.TMax}})
			}
			sn.SecurityTasks[1].PeriodMS = sn.SecurityTasks[1].DesiredPeriod / 2
			data, err := json.Marshal(sn)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sysDir, "snapshot.json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "garbage-snapshot", ops: 3, mutate: func(t *testing.T, sysDir string) {
			if err := os.WriteFile(filepath.Join(sysDir, "snapshot.json"), []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "empty-log", ops: 0, mutate: func(t *testing.T, sysDir string) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sysDir, sh := build(t, dir, tc.ops)
			tc.mutate(t, sysDir)
			r := openRegistry(t, dir, 1000)
			defer r.Close()
			ds, ok := r.Get("edge")
			if !ok {
				t.Fatal("system not recovered")
			}
			if ds.Version() != sh.Version() {
				t.Fatalf("recovered version %d, want %d", ds.Version(), sh.Version())
			}
			if got, want := snapJSON(t, ds.Snapshot()), snapJSON(t, sh.Snapshot()); string(got) != string(want) {
				t.Fatalf("recovered state diverged:\n%s\nvs\n%s", got, want)
			}
			assertFutureDecisionsEqual(t, ds, sh, eventsFn(ds), eventsFn(sh), ds.Version())
		})
	}
}

// TestCrashAtEveryLogOffset cuts a driven system's events.jsonl at every
// byte offset — a crash at any point of any append — and recovers the
// system from its manifest and the cut log. It must come back with exactly
// the state and version a never-crashed shadow had after the complete lines
// before the cut, and the log must be cut back to those lines.
func TestCrashAtEveryLogOffset(t *testing.T) {
	r := openRegistry(t, t.TempDir(), 1000) // no snapshots: recovery replays the log
	ds, err := r.Create("cut", "hydra", partition.BestFit, 2, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(ds.Dir(), "events.jsonl")
	sh := shadow(t, "cut", 2)
	w := testWorkload(t, 2, 0.5, 23)
	type state struct {
		version uint64
		snap    string
	}
	// want[k] is the shadow after the op that wrote log line k.
	want := []state{{sh.Version(), string(snapJSON(t, sh.Snapshot()))}}
	step := func(op func(opDriver)) {
		op(ds)
		op(sh)
		log, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		switch lines := bytes.Count(log, []byte("\n")); lines {
		case len(want) - 1: // refused before the log: no line, no change
		case len(want):
			want = append(want, state{sh.Version(), string(snapJSON(t, sh.Snapshot()))})
		default:
			t.Fatalf("%d log lines after %d", lines, len(want)-1)
		}
	}
	// Admits of both kinds, removals and a reallocate, then two tasks that
	// each need 95% of a core: the second is logged and rejected.
	for i := 0; i < 21; i++ {
		step(func(d opDriver) { driveOp(w, d, i) })
	}
	for _, name := range []string{"fat-1", "fat-2"} {
		step(func(d opDriver) { _, _ = d.AddSecurity(rts.SecurityTask{Name: name, C: 950, TDes: 1000, TMax: 1000}) })
	}
	if ev, _ := sh.EventsSince(sh.Version() - 1); len(ev) != 1 || ev[0].Type != online.EventReject {
		t.Fatalf("the last op must be a logged rejection, got events %+v", ev)
	}
	r.Crash()
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(ds.Dir(), "system.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cut")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "system.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	for off := 0; off <= len(full); off++ {
		if err := os.WriteFile(filepath.Join(dir, "events.jsonl"), full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := syspersist.Recover(dir, 1000, false, nil)
		if err != nil {
			t.Fatalf("cut at byte %d: %v", off, err)
		}
		kept := bytes.LastIndexByte(full[:off], '\n') + 1
		exp := want[bytes.Count(full[:kept], []byte("\n"))]
		if v, snap := got.Version(), string(snapJSON(t, got.Snapshot())); v != exp.version || snap != exp.snap {
			t.Fatalf("cut at byte %d: recovered version %d, state\n%s\nwant version %d, state\n%s", off, v, snap, exp.version, exp.snap)
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
		if log, err := os.ReadFile(filepath.Join(dir, "events.jsonl")); err != nil || !bytes.Equal(log, full[:kept]) {
			t.Fatalf("cut at byte %d: log holds %d bytes after recovery (err %v), want the %d of its complete lines", off, len(log), err, kept)
		}
	}
}

// TestDeleteDoesNotResurrect: a deleted system must not come back on the
// next recovery, and its directory must be gone (no disk leak). A handle
// still held on it must refuse mutations with ErrClosed instead of silently
// writing nowhere.
func TestDeleteDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	r := openRegistry(t, dir, 4)
	ds, err := r.Create("doomed", "hydra", partition.BestFit, 2, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AddSecurity(rts.SecurityTask{Name: "x", C: 0.3, TDes: 1000, TMax: 20000}); err != nil {
		t.Fatal(err)
	}
	sysDir := ds.Dir()
	if !r.Delete("doomed") {
		t.Fatal("delete failed")
	}
	if _, err := os.Stat(sysDir); !os.IsNotExist(err) {
		t.Fatalf("system dir leaked after delete: %v", err)
	}
	if _, err := ds.AddSecurity(rts.SecurityTask{Name: "late", C: 0.2, TDes: 2000, TMax: 30000}); !errorsIs(err, syspersist.ErrClosed) {
		t.Fatalf("admit on a deleted system's handle: %v, want ErrClosed", err)
	}
	r2 := openRegistry(t, dir, 4)
	defer r2.Close()
	if _, ok := r2.Get("doomed"); ok {
		t.Fatal("deleted system resurrected on recovery")
	}
	if got := len(r2.List()); got != 0 {
		t.Fatalf("recovered %d systems, want 0", got)
	}
}

// TestShardCountChangeRehomes: a directory written by an earlier, sharded
// registry — systems spread over shard-<k> subdirectories — must recover
// intact: every system byte-identical to a shadow that never stopped, moved
// under shard-0, and no other shard-<k> directory left behind.
func TestShardCountChangeRehomes(t *testing.T) {
	dir := t.TempDir()
	r := openRegistry(t, dir, 3)
	shadows := map[string]*online.System{}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("move-%d", i)
		ds, err := r.Create(id, "hydra", partition.BestFit, 2, nil, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		sh := shadow(t, id, 2)
		w := testWorkload(t, 2, 0.4, int64(70+i))
		driveOps(w, ds, 9)
		driveOps(w, sh, 9)
		shadows[id] = sh
	}
	r.Close() // graceful: final snapshots written
	// Recreate the layout an eight-shard registry leaves behind.
	for id, k := range map[string]int{"move-1": 3, "move-2": 3, "move-3": 5, "move-4": 5} {
		legacy := filepath.Join(dir, fmt.Sprintf("shard-%d", k))
		if err := os.MkdirAll(legacy, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(filepath.Join(dir, "shard-0", id), filepath.Join(legacy, id)); err != nil {
			t.Fatal(err)
		}
	}
	r2 := openRegistry(t, dir, 3)
	defer r2.Close()
	if got := len(r2.List()); got != 6 {
		t.Fatalf("recovered %d systems from the sharded layout, want 6", got)
	}
	for id, sh := range shadows {
		ds, ok := r2.Get(id)
		if !ok {
			t.Fatalf("system %s lost in rehome", id)
		}
		if want := filepath.Join(dir, "shard-0", id); ds.Dir() != want {
			t.Fatalf("%s recovered from %s, want %s", id, ds.Dir(), want)
		}
		if ds.Version() != sh.Version() {
			t.Fatalf("%s: recovered version %d, want %d", id, ds.Version(), sh.Version())
		}
		if got, want := snapJSON(t, ds.Snapshot()), snapJSON(t, sh.Snapshot()); string(got) != string(want) {
			t.Fatalf("%s diverged after rehome:\n%s\nvs\n%s", id, got, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "shard-0" {
			t.Errorf("%s left behind after rehome", e.Name())
		}
	}
}

// TestRegistryLifecycleAndCounters covers create/get/list/delete bookkeeping,
// the registry counters, and the id-validation rules that guard directory
// names.
func TestRegistryLifecycleAndCounters(t *testing.T) {
	r, err := syspersist.Open(syspersist.Options{Dir: t.TempDir(), MaxSystems: 2, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := testWorkload(t, 2, 0.6, 31)
	a, err := r.Create("sys-a", "hydra", partition.BestFit, 2, w.RT, nil, w.Sec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("sys-a", "hydra", partition.BestFit, 2, nil, nil, nil, 0); err == nil {
		t.Fatal("duplicate id must fail")
	}
	for _, bad := range []string{"bad id!", ".hidden", "a/b", "..", ""} {
		if bad == "" {
			continue
		}
		if _, err := r.Create(bad, "hydra", partition.BestFit, 2, nil, nil, nil, 0); err == nil {
			t.Fatalf("invalid id %q must fail", bad)
		}
	}
	anon, err := r.Create("", "hydra", partition.BestFit, 2, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("overflow", "hydra", partition.BestFit, 2, nil, nil, nil, 0); err == nil {
		t.Fatal("registry bound must be enforced")
	}
	if got := r.List(); len(got) != 2 {
		t.Fatalf("list: %d systems, want 2", len(got))
	}
	if _, ok := r.Get("sys-a"); !ok {
		t.Fatal("get sys-a failed")
	}
	if _, err := a.AddSecurity(rts.SecurityTask{Name: "x", C: 0.5, TDes: 2000, TMax: 20000}); err != nil {
		t.Fatal(err)
	}
	if !r.Delete(anon.ID()) || r.Delete(anon.ID()) {
		t.Fatal("delete must succeed once")
	}
	c := r.Counters()
	if c.Active != 1 || c.Created != 2 || c.Deleted != 1 || c.Admitted != 1 {
		t.Fatalf("counters: %+v", c)
	}
	if c.Events == 0 {
		t.Fatal("event counter not fed")
	}
	// Counters are process-lifetime: a recovery replays history without
	// re-counting it.
	dir := r.Dir()
	r.Close()
	r2 := openRegistry(t, dir, 4)
	defer r2.Close()
	c2 := r2.Counters()
	if c2.Active != 1 || c2.Admitted != 0 || c2.Events != 0 || c2.Created != 0 {
		t.Fatalf("recovered counters not process-lifetime: %+v", c2)
	}
}

// TestMaxSystemsExactUnderConcurrentCreates hammers Create from many
// goroutines against a small bound: in-flight creations hold their slot, so
// the cap must hold exactly.
func TestMaxSystemsExactUnderConcurrentCreates(t *testing.T) {
	const max = 8
	r, err := syspersist.Open(syspersist.Options{Dir: t.TempDir(), MaxSystems: max, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	created := 0
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, err := r.Create(fmt.Sprintf("c-%d-%d", g, i), "hydra", partition.BestFit, 1, nil, nil, nil, 0)
				if err == nil {
					mu.Lock()
					created++
					mu.Unlock()
				} else if !errorsIs(err, syspersist.ErrRegistryFull) {
					t.Errorf("unexpected create error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if created != max {
		t.Fatalf("created %d systems, want exactly %d", created, max)
	}
	if got := len(r.List()); got != max {
		t.Fatalf("list: %d systems, want %d", got, max)
	}
	// Deleting one frees exactly one slot.
	if !r.Delete(r.List()[0].ID()) {
		t.Fatal("delete failed")
	}
	if _, err := r.Create("one-more", "hydra", partition.BestFit, 1, nil, nil, nil, 0); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
	if _, err := r.Create("too-many", "hydra", partition.BestFit, 1, nil, nil, nil, 0); err == nil {
		t.Fatal("bound must hold after refill")
	}
}

// errorsIs avoids importing errors alongside the fmt-heavy test file.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestAutoReallocatePolicyPersists: the reallocate_after knob is recorded in
// the manifest and survives recovery, and the durable wrapper reproduces the
// reject -> reallocate -> admit sequence after a restart exactly as the
// in-memory system does.
func TestAutoReallocatePolicyPersists(t *testing.T) {
	dir := t.TempDir()
	r := openRegistry(t, dir, 1000)
	ds, err := r.Create("frag", "hydra-first-feasible", partition.BestFit, 2, nil, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []rts.SecurityTask{
		{Name: "a1", C: 10, TDes: 50, TMax: 300},
		{Name: "a2", C: 30, TDes: 100, TMax: 300},
		{Name: "a3", C: 60, TDes: 100, TMax: 130},
	} {
		if _, err := ds.AddSecurity(task); err != nil {
			t.Fatalf("admit %s: %v", task.Name, err)
		}
	}
	if _, err := ds.Remove("a1"); err != nil {
		t.Fatal(err)
	}
	// Crash, recover: the knob must still fire on the first rejection.
	r.Crash()
	r2 := openRegistry(t, dir, 1000)
	got, ok := r2.Get("frag")
	if !ok {
		t.Fatal("system not recovered")
	}
	if got.System().ReallocateAfter() != 1 {
		t.Fatalf("ReallocateAfter() = %d after recovery, want 1", got.System().ReallocateAfter())
	}
	base := got.Version()
	p, err := got.AddSecurity(rts.SecurityTask{Name: "b", C: 70, TDes: 100, TMax: 130})
	if err != nil {
		t.Fatalf("auto-reallocate admit after recovery: %v", err)
	}
	ev, _ := got.EventsSince(base)
	if len(ev) != 3 || ev[0].Type != online.EventReject || ev[1].Type != online.EventReallocate || ev[2].Type != online.EventAdmit {
		t.Fatalf("event sequence %+v, want reject/reallocate/admit", ev)
	}
	if p.Version != base+3 {
		t.Fatalf("admit version %d, want %d", p.Version, base+3)
	}
	// And the whole dance must itself recover: crash again, compare.
	state := snapJSON(t, got.Snapshot())
	r2.Crash()
	r3 := openRegistry(t, dir, 1000)
	defer r3.Close()
	again, ok := r3.Get("frag")
	if !ok {
		t.Fatal("system not recovered twice")
	}
	if string(snapJSON(t, again.Snapshot())) != string(state) {
		t.Fatal("auto-reallocate decisions did not replay identically")
	}
}

// TestEphemeralDirRemovedOnClose pins the ownership rule of the persistence
// root: a directory Open created for an empty Dir is removed by Close, and a
// caller-supplied one survives it with its systems.
func TestEphemeralDirRemovedOnClose(t *testing.T) {
	w := testWorkload(t, 2, 0.5, 1)
	r := openRegistry(t, "", 8)
	dir := r.Dir()
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("ephemeral dir missing while open: %v", err)
	}
	if _, err := r.Create("eph", "hydra", partition.BestFit, 2, w.RT, nil, w.Sec, 0); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("ephemeral dir %s survives Close (stat err %v)", dir, err)
	}

	kept := t.TempDir()
	r = openRegistry(t, kept, 8)
	if _, err := r.Create("kept", "hydra", partition.BestFit, 2, w.RT, nil, w.Sec, 0); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r = openRegistry(t, kept, 8)
	defer r.Close()
	if _, ok := r.Get("kept"); !ok {
		t.Fatal("caller-supplied dir lost its system on Close")
	}
}
