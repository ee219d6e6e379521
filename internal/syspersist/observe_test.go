package syspersist_test

import (
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/syspersist"
)

// countObserver counts persistence signals (concurrency-safe: snapshots are
// written on background goroutines).
type countObserver struct {
	appends, fsyncs, snapshots atomic.Uint64
}

func (o *countObserver) ObserveWALAppend(time.Duration) { o.appends.Add(1) }
func (o *countObserver) ObserveWALFsync(time.Duration)  { o.fsyncs.Add(1) }
func (o *countObserver) ObserveSnapshot(time.Duration)  { o.snapshots.Add(1) }

func TestObserverSeesAppendsAndSnapshots(t *testing.T) {
	obs := &countObserver{}
	r, err := syspersist.Open(syspersist.Options{
		Dir: t.TempDir(), MaxSystems: 4, SnapshotEvery: 2,
		Fsync: true, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ds, err := r.Create("obs-sys", "hydra", partition.BestFit, 2, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 6
	for i := 0; i < ops; i++ {
		if _, err := ds.AddRT(rts.RTTask{Name: name("t", i), C: 1, T: 100, D: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if got := obs.appends.Load(); got != ops {
		t.Fatalf("observed %d WAL appends, want %d", got, ops)
	}
	if got := obs.fsyncs.Load(); got != ops {
		t.Fatalf("observed %d WAL fsyncs, want %d (fsync enabled)", got, ops)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := obs.snapshots.Load(); got == 0 {
		t.Fatal("no snapshot writes observed after Flush")
	}
}

func name(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}
