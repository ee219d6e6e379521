package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheHammer drives 32 goroutines over overlapping keys and pins the
// cache's contracts: exactly one computation per key at a time (singleflight),
// every call counted once as a hit, miss or coalesced wait, and contiguous
// eviction accounting (inserts = entries + evictions). Run with -race.
func TestCacheHammer(t *testing.T) {
	const (
		goroutines = 32
		uniqueKeys = 48
		rounds     = 64
	)
	c := NewCache(16) // small capacity so evictions actually happen

	keys := make([]string, uniqueKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	var computed [uniqueKeys]atomic.Int64
	var inFlightComputes [uniqueKeys]atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Overlapping access pattern: every goroutine walks the key
				// space at its own phase, so identical keys race constantly.
				i := (g*7 + r) % uniqueKeys
				val, _, err := c.Do(keys[i], func() ([]byte, error) {
					if n := inFlightComputes[i].Add(1); n != 1 {
						t.Errorf("key %d: %d concurrent computations", i, n)
					}
					defer inFlightComputes[i].Add(-1)
					computed[i].Add(1)
					return []byte(fmt.Sprintf("value-%03d", i)), nil
				})
				if err != nil {
					t.Errorf("Do(%d): %v", i, err)
					return
				}
				if want := fmt.Sprintf("value-%03d", i); string(val) != want {
					t.Errorf("key %d returned %q, want %q", i, val, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Never more than one computation at a time per key; with a cache larger
	// than zero, every key computes at least once.
	var totalComputes uint64
	for i := range computed {
		n := computed[i].Load()
		if n < 1 {
			t.Errorf("key %d never computed", i)
		}
		totalComputes += uint64(n)
	}

	// Counter book-keeping: every Do is a hit, a miss or a coalesced wait;
	// misses equal actual computations; eviction accounting is contiguous
	// (every successful computation was inserted, and every insert is either
	// still resident or was evicted).
	total := c.Stats()
	if got, want := total.Hits+total.Misses+total.Coalesced, uint64(goroutines*rounds); got != want {
		t.Fatalf("hits+misses+coalesced = %d, want %d", got, want)
	}
	if total.Misses != totalComputes {
		t.Fatalf("misses = %d, computations = %d", total.Misses, totalComputes)
	}
	if uint64(total.Entries)+total.Evictions != total.Misses {
		t.Fatalf("entries(%d) + evictions(%d) != inserts(%d)", total.Entries, total.Evictions, total.Misses)
	}
	if total.Capacity != 16 || total.Entries > total.Capacity {
		t.Fatalf("entries %d, capacity %d: want capacity exactly 16 and entries within it", total.Entries, total.Capacity)
	}
}

// TestStripedCacheStatsMatchServiceTotals pins the request accounting
// /v1/stats reports after concurrent load through the full HTTP path: every
// allocate request is counted exactly once as a hit, a miss or a coalesced
// wait.
func TestStripedCacheStatsMatchServiceTotals(t *testing.T) {
	s := newServer(t)
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				// A few distinct problems plus repeats: hits, misses and
				// coalesced waits all occur.
				body := allocateBody(sampleTaskset, "")
				if g%2 == 0 {
					body = allocateBody(fmt.Sprintf(`{
					  "cores": 2,
					  "rt_tasks": [{"name": "ctl", "wcet_ms": 5, "period_ms": %d}],
					  "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}]
					}`, 20+r), "")
				}
				if w := post(t, s, "/v1/allocate", body); w.Code != 200 {
					t.Errorf("status %d: %s", w.Code, w.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var st StatsResponse
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits+st.Cache.Misses+st.Cache.Coalesced != goroutines*8 {
		t.Fatalf("request accounting off: %+v", st.Cache)
	}
}
