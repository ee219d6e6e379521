package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTracerOffIsNil(t *testing.T) {
	tr := NewTracer(8)
	if got := tr.Start("GET /x", ""); got != nil {
		t.Fatal("tracer with sampling off returned a trace")
	}
	// The nil trace must be safe through the whole span API.
	var nilTr *Trace
	sp := nilTr.StartSpan("decode")
	sp.End()
	nilTr.Finish()
	if nilTr.ID() != "" {
		t.Fatal("nil trace ID not empty")
	}
}

func TestTraceSpansNest(t *testing.T) {
	tc := NewTracer(8)
	tc.SetSample(1)
	tr := tc.Start("POST /v1/allocate", "req-1")
	if tr == nil {
		t.Fatal("sample=1 did not trace")
	}
	if tr.ID() != "req-1" {
		t.Fatalf("ID = %q, want req-1", tr.ID())
	}
	outer := tr.StartSpan("cache")
	inner := tr.StartSpan("allocate")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()
	sibling := tr.StartSpan("encode")
	sibling.End()
	tr.Finish()

	traces := tc.Snapshot(0)
	if len(traces) != 1 {
		t.Fatalf("snapshot has %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.RequestID != "req-1" || got.Route != "POST /v1/allocate" {
		t.Fatalf("trace header = %+v", got)
	}
	if len(got.Spans) != 4 {
		t.Fatalf("spans = %d, want 4 (root, cache, allocate, encode)", len(got.Spans))
	}
	// Root, then cache under root, allocate under cache, encode under root.
	wantParents := []int{-1, 0, 1, 0}
	for i, s := range got.Spans {
		if s.Parent != wantParents[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, wantParents[i])
		}
	}
	if got.Spans[2].DurUS <= 0 || got.DurMS <= 0 {
		t.Errorf("durations not recorded: %+v", got)
	}
}

func TestHeadSampling(t *testing.T) {
	tc := NewTracer(64)
	tc.SetSample(4)
	n := 0
	for i := 0; i < 40; i++ {
		if tr := tc.Start("GET /x", ""); tr != nil {
			tr.Finish()
			n++
		}
	}
	if n != 10 {
		t.Fatalf("1-in-4 sampling over 40 requests traced %d, want 10", n)
	}
	sampled, _ := tc.Stats()
	if sampled != 10 {
		t.Fatalf("Stats sampled = %d, want 10", sampled)
	}
}

func TestRingBoundsAndNewestFirst(t *testing.T) {
	tc := NewTracer(4)
	tc.SetSample(1)
	for i := 0; i < 10; i++ {
		tr := tc.Start("GET /x", fmt.Sprintf("req-%d", i))
		tr.Finish()
	}
	traces := tc.Snapshot(0)
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want 4", len(traces))
	}
	for i, want := range []string{"req-9", "req-8", "req-7", "req-6"} {
		if traces[i].RequestID != want {
			t.Errorf("trace %d = %s, want %s", i, traces[i].RequestID, want)
		}
	}
	_, dropped := tc.Stats()
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
}

func TestSnapshotMinDuration(t *testing.T) {
	tc := NewTracer(8)
	tc.SetSample(1)
	fast := tc.Start("GET /fast", "fast")
	fast.Finish()
	slow := tc.Start("GET /slow", "slow")
	time.Sleep(5 * time.Millisecond)
	slow.Finish()
	traces := tc.Snapshot(2 * time.Millisecond)
	if len(traces) != 1 || traces[0].RequestID != "slow" {
		t.Fatalf("min_ms filter returned %+v, want only slow", traces)
	}
}

// TestTraceRingConcurrent hammers Start/Finish against Snapshot readers
// under the race detector: the ring must stay bounded and every snapshot
// internally consistent.
func TestTraceRingConcurrent(t *testing.T) {
	tc := NewTracer(16)
	tc.SetSample(1)
	const writers, per = 8, 500
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < per; i++ {
				tr := tc.Start("GET /x", "")
				sp := tr.StartSpan("stage")
				sp.End()
				tr.Finish()
			}
		}()
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range tc.Snapshot(0) {
				if len(tr.Spans) != 2 {
					t.Errorf("trace with %d spans, want 2", len(tr.Spans))
					return
				}
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if got := len(tc.Snapshot(0)); got != 16 {
		t.Fatalf("final ring size %d, want 16", got)
	}
	sampled, dropped := tc.Stats()
	if sampled != writers*per {
		t.Fatalf("sampled = %d, want %d", sampled, writers*per)
	}
	if dropped != sampled-16 {
		t.Fatalf("dropped = %d, want %d", dropped, sampled-16)
	}
}
