package online_test

import (
	"testing"

	"hydra/internal/core"
	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// TestOnlineAdmitAllocs pins BenchmarkOnlineAdmit/incremental's allocations:
// AddSecurity plus Remove on a warm system allocate twice, once per logged
// event. Number text is formatted by snapshots, never on admission.
func TestOnlineAdmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector runtime allocates; counts only meaningful without -race")
	}
	const m = 4
	w := baseWorkload(t, m, 0.5*m, 5)
	sys, err := online.NewSystem("pin", "hydra", partition.BestFit, m, w.RT, nil, w.Sec)
	if err != nil {
		t.Fatal(err)
	}
	probe := rts.SecurityTask{Name: "probe", C: 2, TDes: 1500, TMax: 15000}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sys.AddSecurity(probe); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Remove(probe.Name); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("AddSecurity + Remove = %.1f allocs/op, budget 2: something moved onto the admission path", allocs)
	}
}

// BenchmarkOnlineAdmit compares the two ways of answering "can this system
// take one more security task":
//
//   - incremental: AddSecurity on a warm system (an O(M) period-adaptation
//     trial against the committed folds) followed by Remove, so the system
//     returns to its starting state every iteration;
//   - cold: a full cold allocation of the same taskset plus the probe task —
//     repartition the real-time tasks, re-run the scheme over every security
//     task — which is what the stateless /v1/allocate path has to do.
//
// The acceptance bar for the online subsystem is incremental >= 3x faster
// than cold; both series feed the benchjson -compare gate via
// BENCH_serve.json.
func BenchmarkOnlineAdmit(b *testing.B) {
	const m = 4
	w := baseWorkload(b, m, 0.5*m, 5)
	probe := rts.SecurityTask{Name: "probe", C: 2, TDes: 1500, TMax: 15000}

	b.Run("incremental", func(b *testing.B) {
		sys, err := online.NewSystem("bench", "hydra", partition.BestFit, m, w.RT, nil, w.Sec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.AddSecurity(probe); err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Remove(probe.Name); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cold", func(b *testing.B) {
		sec := append(append([]rts.SecurityTask(nil), w.Sec...), probe)
		alloc := core.MustLookup("hydra")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := partition.PartitionRT(w.RT, m, partition.BestFit)
			if err != nil {
				b.Fatal(err)
			}
			in, err := core.NewInput(m, w.RT, p.CoreOf, sec)
			if err != nil {
				b.Fatal(err)
			}
			if r := alloc.Allocate(in); !r.Schedulable {
				b.Fatalf("cold allocation infeasible: %s", r.Reason)
			}
		}
	})
}
