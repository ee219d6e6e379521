package syspersist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
)

// snapshotOf is the reflective reference for renderSnapshot: the
// SnapshotFile whose json.MarshalIndent rendering every snapshot.json must
// equal.
func snapshotOf(ps online.PersistedState, seq uint64) SnapshotFile {
	sn := SnapshotFile{
		Seq:           seq,
		Version:       ps.Version,
		Cursor:        ps.Cursor,
		RejectStreak:  ps.RejectStreak,
		RTTasks:       []PlacedRTJSON{},
		SecurityTasks: []PlacedSecJSON{},
	}
	for _, p := range ps.RT {
		sn.RTTasks = append(sn.RTTasks, PlacedRTJSON{RTTaskJSON: rtToJSON(p.Task), Core: p.Core})
	}
	for _, p := range ps.Sec {
		sn.SecurityTasks = append(sn.SecurityTasks, PlacedSecJSON{SecurityTaskJSON: secToJSON(p.Task), Core: p.Core, PeriodMS: p.Period})
	}
	return sn
}

// referenceSnapshot is the snapshot.json the reflective writer produced for
// ps at seq, or nil when encoding/json refuses it.
func referenceSnapshot(ps online.PersistedState, seq uint64) []byte {
	data, err := json.MarshalIndent(snapshotOf(ps, seq), "", "  ")
	if err != nil {
		return nil
	}
	return append(data, '\n')
}

var (
	oddNames  = []string{"", "ctl", "é", "a<b", "a&b", "a>b", `a"b`, `a\b`, "line\u2028sep", "tab\t", "nul\x00", "\xff\xfe", "del\x7f"}
	oddFloats = []float64{0, math.Copysign(0, -1), 5e-324, 9.99e-7, 1e-6, 0.1, 1, 20, 123456.789, 1e20, 1e21, math.MaxFloat64}
)

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return oddFloats[rng.Intn(len(oddFloats))]
	}
	return math.Pow(10, 60*rng.Float64()-30) * (rng.Float64() - 0.25)
}

func randName(rng *rand.Rand, i int) string {
	if rng.Intn(2) == 0 {
		return oddNames[rng.Intn(len(oddNames))]
	}
	return fmt.Sprintf("t%d", i)
}

// randomState draws a persisted state field by field, without regard to
// schedulability: lists may be empty, deadlines and weights zero, equal to
// the period or anything else, and the reject streak nonzero.
func randomState(rng *rand.Rand) online.PersistedState {
	ps := online.PersistedState{
		Version:      rng.Uint64() >> uint(rng.Intn(64)),
		Cursor:       rng.Intn(5) - 1,
		RejectStreak: rng.Intn(3) * rng.Intn(4),
	}
	for i := rng.Intn(3) * rng.Intn(6); i > 0; i-- {
		t := rts.RTTask{Name: randName(rng, i), C: randFloat(rng), T: randFloat(rng)}
		switch rng.Intn(3) {
		case 0:
			t.D = t.T
		case 1:
			t.D = 0.5 * t.T
		default:
			t.D = randFloat(rng)
		}
		ps.RT = append(ps.RT, online.PlacedRT{Task: t, Core: rng.Intn(8)})
	}
	for i := rng.Intn(3) * rng.Intn(6); i > 0; i-- {
		t := rts.SecurityTask{Name: randName(rng, i), C: randFloat(rng), TDes: randFloat(rng), TMax: randFloat(rng)}
		if rng.Intn(2) == 0 {
			t.Weight = randFloat(rng)
		}
		ps.Sec = append(ps.Sec, online.PlacedSec{Task: t, Core: rng.Intn(8), Period: randFloat(rng)})
	}
	return ps
}

// TestRenderSnapshotMatchesEncodingJSON renders random persisted states and
// compares the bytes with json.MarshalIndent of the reflective reference. A
// state encoding/json refuses must fail the appender too.
func TestRenderSnapshotMatchesEncodingJSON(t *testing.T) {
	rng := stats.Split(15, 3)
	refused := 0
	for i := 0; i < 2000; i++ {
		ps, seq := randomState(rng), rng.Uint64()>>uint(rng.Intn(64))
		if i%50 == 0 && len(ps.Sec) > 0 {
			ps.Sec[0].Period = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i/50%3]
		}
		want := referenceSnapshot(ps, seq)
		got, ok := renderSnapshot(ps, seq)
		if ok != (want != nil) || ok && !bytes.Equal(got, want) {
			t.Fatalf("state %d: appender (ok %t) and encoding/json differ\nappender:\n%s\nencoding/json:\n%s", i, ok, got, want)
		}
		if !ok {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no state exercised the non-finite path")
	}
}

// TestWriteSnapshotRefusesNonFinite checks that a state encoding/json
// refuses leaves snapshot.json alone and reports an error.
func TestWriteSnapshotRefusesNonFinite(t *testing.T) {
	st, err := CreateStore(t.TempDir(), Manifest{ID: "nan"}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ps := online.PersistedState{Sec: []online.PlacedSec{{Task: rts.SecurityTask{Name: "s", C: 1, TDes: 10, TMax: 100}, Period: math.NaN()}}}
	if err := st.WriteSnapshot(ps, 1); err == nil {
		t.Fatal("WriteSnapshot of a NaN period succeeded")
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), snapshotName)); !os.IsNotExist(err) {
		t.Fatalf("snapshot.json after a refused write: %v", err)
	}
}

// TestSnapshotFileMatchesEncodingJSON drives durable systems, created from
// taskgen workloads with odd names, weights and D < T, through admits,
// rejections, removals and reallocations, and compares the snapshot.json a
// Flush writes with the reflective rendering of the same state.
func TestSnapshotFileMatchesEncodingJSON(t *testing.T) {
	r, err := Open(Options{Dir: t.TempDir(), MaxSystems: 16, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	rng := stats.Split(15, 4)
	created, streaks := 0, 0
	for j := 0; j < 8; j++ {
		m := 2 + j%3
		w, err := taskgen.Generate(taskgen.DefaultParams(m, 0.5+0.25*float64(j%4)), stats.Split(15, 200+int64(j)))
		if err != nil {
			t.Fatal(err)
		}
		var rt []rts.RTTask
		if j%4 != 1 {
			for i, task := range w.RT {
				task.Name = fmt.Sprintf("%s-r%d", oddNames[(i+j)%len(oddNames)], i)
				if i%3 == 0 {
					task.D = task.T - 0.25*(task.T-task.C)
				}
				rt = append(rt, task)
			}
		}
		var sec []rts.SecurityTask
		if j%4 != 2 {
			for i, task := range w.Sec {
				task.Name = fmt.Sprintf("%s-s%d", oddNames[(i+2*j)%len(oddNames)], i)
				task.Weight = float64(i%3) * rng.Float64() * 4
				sec = append(sec, task)
			}
		}
		ds, err := r.Create(fmt.Sprintf("sys-%d", j), "hydra", partition.BestFit, m, rt, nil, sec, 1000)
		if err != nil {
			continue // D < T made this draw unschedulable
		}
		created++
		var alive []string
		for op := 0; op < 60; op++ {
			switch x := rng.Float64(); {
			case x < 0.25 && len(alive) > 0:
				k := rng.Intn(len(alive))
				_, _ = ds.Remove(alive[k])
				alive = append(alive[:k], alive[k+1:]...)
			case x < 0.3:
				_, _ = ds.Reallocate()
			case x < 0.45:
				period := 10 * math.Pow(100, rng.Float64())
				c := (0.005 + 0.045*rng.Float64()) * period
				name := fmt.Sprintf("r%d", op)
				if _, err := ds.AddRT(rts.RTTask{Name: name, C: c, T: period, D: c + 0.9*(period-c)}); err == nil {
					alive = append(alive, name)
				}
			default:
				tdes := 1000 + 2000*rng.Float64()
				name := fmt.Sprintf("s%d", op)
				// Up to half a core at the desired period: some admits fail.
				task := rts.SecurityTask{Name: name, C: 0.5 * rng.Float64() * tdes, TDes: tdes, TMax: 1.2 * tdes, Weight: rng.Float64()}
				if _, err := ds.AddSecurity(task); err == nil {
					alive = append(alive, name)
				}
			}
			if err := ds.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(ds.Dir(), snapshotName))
			if err != nil {
				t.Fatal(err)
			}
			ps := ds.sys.PersistedState()
			if ps.RejectStreak > 0 {
				streaks++
			}
			if want := referenceSnapshot(ps, ds.store.Seq()); !bytes.Equal(got, want) {
				t.Fatalf("%s op %d: snapshot.json differs from encoding/json\nfile:\n%s\nencoding/json:\n%s", ds.ID(), op, got, want)
			}
		}
	}
	if created < 5 || streaks == 0 {
		t.Fatalf("%d of 8 systems created, %d snapshots with a nonzero reject streak", created, streaks)
	}
}
