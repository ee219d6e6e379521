package syspersist_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/syspersist"
)

// BenchmarkDurableAdmit prices the durability tax on the online admit hot
// path: the same AddSecurity+Remove pair BenchmarkOnlineAdmit/incremental
// measures in memory (~0.6 us), but through a DurableSystem so every op is
// appended to the write-ahead log (and a snapshot lands every 64 ops, the
// default cadence). The no-fsync row is the default configuration and the
// acceptance bar (< 10 us/op); the fsync row is the kernel-crash-safe mode
// and shows what a physical barrier per acknowledged mutation costs.
func BenchmarkDurableAdmit(b *testing.B) {
	const m = 4
	w := testWorkload(b, m, 0.5*float64(m), 5)
	probe := rts.SecurityTask{Name: "probe", C: 2, TDes: 1500, TMax: 15000}
	for _, mode := range []struct {
		name  string
		fsync bool
	}{{"no-fsync", false}, {"fsync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			r, err := syspersist.Open(syspersist.Options{Dir: b.TempDir(), Fsync: mode.fsync})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			sys, err := r.Create("bench", "hydra", partition.BestFit, m, w.RT, nil, w.Sec, 0)
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
	}
}

// BenchmarkSystemRecovery measures a cold start over a populated systems
// directory: one system whose log holds 200 acknowledged ops and no
// snapshot, so every iteration is a worst-case full replay (manifest load +
// 200 op re-admissions). The per-recovered-op rate bounds how much history
// the -snapshot-every knob may leave in the tail before restarts get slow.
func BenchmarkSystemRecovery(b *testing.B) {
	const ops = 200
	dir := b.TempDir()
	opts := syspersist.Options{Dir: dir, SnapshotEvery: 1 << 20}
	r, err := syspersist.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := r.Create("bench", "hydra", partition.BestFit, 4, nil, nil, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < ops/2; i++ {
		name := fmt.Sprintf("t%d", i)
		if _, err := sys.AddSecurity(rts.SecurityTask{Name: name, C: 0.5, TDes: 2000, TMax: 30000}); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Remove(name); err != nil {
			b.Fatal(err)
		}
	}
	version := sys.Version()
	sysDir := sys.Dir()
	r.Close()
	// Close flushed a snapshot; delete it so every recovery replays the log.
	snap := filepath.Join(sysDir, "snapshot.json")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.Remove(snap); err != nil && !os.IsNotExist(err) {
			b.Fatal(err)
		}
		b.StartTimer()
		r, err := syspersist.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		ds, ok := r.Get("bench")
		if !ok || ds.Version() != version {
			b.Fatalf("bad recovery: ok=%v version=%d want %d", ok, ds.Version(), version)
		}
		b.StopTimer()
		r.Close()
		b.StartTimer()
	}
	b.ReportMetric(ops, "replayed_ops/op")
}
