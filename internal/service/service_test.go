package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/tasksetio"
)

const sampleTaskset = `{
  "cores": 2,
  "rt_tasks": [
    {"name": "ctl", "wcet_ms": 5, "period_ms": 20},
    {"name": "nav", "wcet_ms": 30, "period_ms": 100}
  ],
  "security_tasks": [
    {"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000},
    {"name": "bro", "wcet_ms": 30, "desired_period_ms": 500, "max_period_ms": 5000}
  ]
}`

// sampleTasksetPermuted is the same system with both task lists reordered —
// canonicalization must map it to the same cache entry.
const sampleTasksetPermuted = `{
  "cores": 2,
  "rt_tasks": [
    {"name": "nav", "wcet_ms": 30, "period_ms": 100},
    {"name": "ctl", "wcet_ms": 5, "period_ms": 20}
  ],
  "security_tasks": [
    {"name": "bro", "wcet_ms": 30, "desired_period_ms": 500, "max_period_ms": 5000},
    {"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}
  ]
}`

// pinnedOverload pins two 75%-utilization real-time tasks onto core 0 of 2,
// which exact RTA refuses (R = 30 > D = 20), next to an empty core 1 that
// would host the security task.
const pinnedOverload = `{
  "cores": 2,
  "rt_tasks": [
    {"name": "a", "wcet_ms": 15, "period_ms": 20},
    {"name": "b", "wcet_ms": 15, "period_ms": 20}
  ],
  "security_tasks": [
    {"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}
  ],
  "rt_partition": [0, 0]
}`

// testAllocator wraps a registered scheme with a call counter and an
// optional artificial delay, for singleflight and cancellation tests.
type testAllocator struct {
	name  string
	delay time.Duration
	calls atomic.Int64
	inner core.Allocator
}

func (a *testAllocator) Name() string { return a.name }
func (a *testAllocator) Allocate(in *core.Input) *core.Result {
	a.calls.Add(1)
	if a.delay > 0 {
		time.Sleep(a.delay)
	}
	return a.inner.Allocate(in)
}

var (
	countingAlloc = &testAllocator{name: "test-counting", delay: 5 * time.Millisecond, inner: core.MustLookup("hydra")}
	slowAlloc     = &testAllocator{name: "test-slow", delay: 30 * time.Millisecond, inner: core.MustLookup("hydra")}
)

func TestMain(m *testing.M) {
	core.Register(countingAlloc)
	core.Register(slowAlloc)
	os.Exit(m.Run())
}

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// post calls the handler directly and returns the recorded response.
func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func allocateBody(taskset string, extra string) string {
	if extra != "" {
		extra = ", " + extra
	}
	return fmt.Sprintf(`{"taskset": %s%s}`, taskset, extra)
}

func TestAllocateCachedByteIdentical(t *testing.T) {
	s := newServer(t)
	first := post(t, s, "/v1/allocate", allocateBody(sampleTaskset, ""))
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q, want MISS", got)
	}
	second := post(t, s, "/v1/allocate", allocateBody(sampleTaskset, ""))
	if second.Code != http.StatusOK {
		t.Fatalf("status %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("cached response differs from uncached:\n%s\nvs\n%s", first.Body, second.Body)
	}
	var rj tasksetio.ResultJSON
	if err := json.Unmarshal(first.Body.Bytes(), &rj); err != nil {
		t.Fatal(err)
	}
	if !rj.Schedulable || rj.Scheme != "hydra" || len(rj.Tasks) != 2 {
		t.Fatalf("unexpected result: %+v", rj)
	}
	// Canonical ordering: tasks sorted by name.
	if rj.Tasks[0].Name != "bro" || rj.Tasks[1].Name != "tw" {
		t.Fatalf("tasks not in canonical order: %+v", rj.Tasks)
	}
}

func TestAllocatePermutedTasksetHitsCache(t *testing.T) {
	s := newServer(t)
	first := post(t, s, "/v1/allocate", allocateBody(sampleTaskset, ""))
	perm := post(t, s, "/v1/allocate", allocateBody(sampleTasksetPermuted, ""))
	if got := perm.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("permuted taskset X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(first.Body.Bytes(), perm.Body.Bytes()) {
		t.Fatalf("permuted taskset got a different body")
	}
}

func TestAllocateHitRateOverRepeatLoop(t *testing.T) {
	s := newServer(t)
	const n = 1000
	for i := 0; i < n; i++ {
		w := post(t, s, "/v1/allocate", allocateBody(sampleTaskset, ""))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	var st StatsResponse
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Cache.Misses)
	}
	rate := float64(st.Cache.Hits) / float64(st.Cache.Hits+st.Cache.Misses)
	if rate <= 0.9 {
		t.Fatalf("hit rate %.3f, want > 0.9 (stats: %+v)", rate, st.Cache)
	}
	if st.Allocate.Hit.Count != n-1 || st.Allocate.Cold.Count != 1 {
		t.Fatalf("latency counts cold=%d hit=%d, want 1 and %d", st.Allocate.Cold.Count, st.Allocate.Hit.Count, n-1)
	}
}

func TestAllocateInfeasibleIsAVerdict(t *testing.T) {
	overload := `{
	  "cores": 2,
	  "rt_tasks": [
	    {"name": "a", "wcet_ms": 90, "period_ms": 100},
	    {"name": "b", "wcet_ms": 90, "period_ms": 100},
	    {"name": "c", "wcet_ms": 90, "period_ms": 100}
	  ],
	  "security_tasks": [
	    {"name": "s", "wcet_ms": 1, "desired_period_ms": 100, "max_period_ms": 200}
	  ]
	}`
	for _, tc := range []struct {
		name, taskset, reason string
	}{
		{"heuristic-packing-fails", overload, "no core can admit"},
		{"pinned-partition-overloads-core-0", pinnedOverload, "core 0 is not schedulable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t)
			check := func(body []byte) {
				t.Helper()
				var rj tasksetio.ResultJSON
				if err := json.Unmarshal(body, &rj); err != nil {
					t.Fatal(err)
				}
				if rj.Schedulable || !strings.Contains(rj.Reason, tc.reason) {
					t.Fatalf("want an unschedulable verdict whose reason names %q, got %+v", tc.reason, rj)
				}
			}
			w := post(t, s, "/v1/allocate", allocateBody(tc.taskset, ""))
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			check(w.Body.Bytes())
			// The verdict is cached like any other result.
			if got := post(t, s, "/v1/allocate", allocateBody(tc.taskset, "")).Header().Get("X-Cache"); got != "HIT" {
				t.Fatalf("repeat infeasible request X-Cache = %q, want HIT", got)
			}
			// Every batch entry gets the same verdict, cold or cached.
			w = post(t, newServer(t), "/v1/allocate/batch", fmt.Sprintf(`{"tasksets": [%s, %s]}`, tc.taskset, tc.taskset))
			var resp BatchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Results) != 2 {
				t.Fatalf("batch: %v: %s", err, w.Body)
			}
			for _, body := range resp.Results {
				check(body)
			}
		})
	}
	// singlecore repartitions the real-time tasks itself, so a pin it never
	// used leaves its answer unchanged.
	s := newServer(t)
	unpinned := strings.Replace(pinnedOverload, `"rt_partition": [0, 0]`, `"rt_partition": null`, 1)
	pinned := post(t, s, "/v1/allocate", allocateBody(pinnedOverload, `"scheme": "singlecore"`))
	free := post(t, s, "/v1/allocate", allocateBody(unpinned, `"scheme": "singlecore"`))
	if pinned.Code != http.StatusOK || !bytes.Equal(pinned.Body.Bytes(), free.Body.Bytes()) {
		t.Fatalf("singlecore: pinned answer (%d)\n%s\ndiffers from the unpinned one\n%s", pinned.Code, pinned.Body, free.Body)
	}
}

// singlecoreTaskset separates the heuristics singlecore repacks with: on
// cores 0 and 1 (core 2 is the security core), best-fit stacks every
// real-time task on core 0 and worst-fit alternates them.
const singlecoreTaskset = `{
  "cores": 3,
  "rt_tasks": [
    {"name": "a", "wcet_ms": 30, "period_ms": 100},
    {"name": "b", "wcet_ms": 30, "period_ms": 100},
    {"name": "c", "wcet_ms": 20, "period_ms": 100},
    {"name": "d", "wcet_ms": 10, "period_ms": 100}
  ],
  "security_tasks": [
    {"name": "s", "wcet_ms": 5, "desired_period_ms": 100, "max_period_ms": 1000}
  ]
}`

// TestSinglecoreRepacksWithHeuristic: /v1/allocate, /v1/allocate/batch and
// /v1/simulate repack singlecore's real-time tasks with the request's
// heuristic, as hydra -scheme singlecore -heuristic does. Each route runs on
// a fresh server, so no answer comes from another route's cache entry.
func TestSinglecoreRepacksWithHeuristic(t *testing.T) {
	for _, tc := range []struct {
		heuristic string
		cores     []int // rt_partition of a, b, c, d
		simTasks  []int // tasks simulated per core
	}{
		{"best-fit", []int{0, 0, 0, 0}, []int{4, 0, 1}},
		{"worst-fit", []int{0, 1, 0, 1}, []int{2, 2, 1}},
	} {
		extra := fmt.Sprintf(`"scheme": "singlecore", "heuristic": %q`, tc.heuristic)
		w := post(t, newServer(t), "/v1/allocate/batch", fmt.Sprintf(`{"tasksets": [%s], %s}`, singlecoreTaskset, extra))
		var batch BatchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &batch); err != nil || len(batch.Results) != 1 {
			t.Fatalf("%s batch: status %d, %v: %s", tc.heuristic, w.Code, err, w.Body)
		}
		for route, body := range map[string][]byte{
			"allocate": post(t, newServer(t), "/v1/allocate", allocateBody(singlecoreTaskset, extra)).Body.Bytes(),
			"batch":    batch.Results[0],
		} {
			var rj tasksetio.ResultJSON
			if err := json.Unmarshal(body, &rj); err != nil || !rj.Schedulable || len(rj.RTPartition) != len(tc.cores) {
				t.Fatalf("%s %s: %v: %s", tc.heuristic, route, err, body)
			}
			for i, p := range rj.RTPartition {
				if p.Core != tc.cores[i] {
					t.Fatalf("%s %s: rt_partition %+v, want cores %v", tc.heuristic, route, rj.RTPartition, tc.cores)
				}
			}
		}
		w = post(t, newServer(t), "/v1/simulate", allocateBody(singlecoreTaskset, extra))
		var sr SimulateResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil || !sr.Schedulable || len(sr.Cores) != len(tc.simTasks) {
			t.Fatalf("%s simulate: status %d, %v: %s", tc.heuristic, w.Code, err, w.Body)
		}
		for c, core := range sr.Cores {
			if core.Tasks != tc.simTasks[c] {
				t.Fatalf("%s simulate: cores %+v, want %v tasks per core", tc.heuristic, sr.Cores, tc.simTasks)
			}
		}
	}
}

// nanAllocator answers unschedulable with a NaN cumulative tightness, a
// document encoding/json refuses.
type nanAllocator struct{}

func (nanAllocator) Name() string { return "nan" }

func (nanAllocator) Allocate(*core.Input) *core.Result {
	return &core.Result{Scheme: "nan", Reason: "test", Cumulative: math.NaN()}
}

// TestComputeAllocationRefusesNonFinite: a result document the writer
// reports not OK is an error, which allocate answers with a 500 and the
// cache does not keep (TestCacheErrorNotCached).
func TestComputeAllocationRefusesNonFinite(t *testing.T) {
	p, err := tasksetio.Decode(strings.NewReader(sampleTaskset))
	if err != nil {
		t.Fatal(err)
	}
	if body, err := computeAllocation(p.Canonical(), nanAllocator{}, partition.BestFit); err == nil {
		t.Fatalf("a NaN cumulative tightness rendered as\n%s", body)
	}
}

func TestAllocateBadRequests(t *testing.T) {
	s := newServer(t)
	cases := []string{
		allocateBody(sampleTaskset, `"scheme": "bogus"`),
		allocateBody(sampleTaskset, `"heuristic": "bogus"`),
		`{"taskset": {"cores": 0, "rt_tasks": [], "security_tasks": []}}`,
		`{"taskset": {"cores": 2, "bogus_field": 1, "rt_tasks": [], "security_tasks": []}}`,
		`{not json`,
	}
	for _, body := range cases {
		if w := post(t, s, "/v1/allocate", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, w.Code)
		}
	}
	// A bad scheme is reported before a bad heuristic.
	if w := post(t, s, "/v1/allocate", allocateBody(sampleTaskset, `"scheme": "bogus", "heuristic": "bogus"`)); !strings.Contains(w.Body.String(), "unknown scheme") {
		t.Errorf("bad scheme and heuristic: status %d: %s", w.Code, w.Body)
	}
	// Wrong method.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/allocate", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/allocate: status %d, want 405", w.Code)
	}
}

// batchTasksets builds n distinct schedulable tasksets.
func batchTasksets(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = fmt.Sprintf(`{
		  "cores": 2,
		  "rt_tasks": [
		    {"name": "ctl", "wcet_ms": 5, "period_ms": %d},
		    {"name": "nav", "wcet_ms": 30, "period_ms": 100}
		  ],
		  "security_tasks": [
		    {"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}
		  ]
		}`, 20+i)
	}
	return docs
}

func TestBatchOrderedAndDeterministic(t *testing.T) {
	s := newServer(t)
	docs := batchTasksets(16)
	body := fmt.Sprintf(`{"workers": 4, "tasksets": [%s]}`, strings.Join(docs, ","))
	first := post(t, s, "/v1/allocate/batch", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(docs) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(docs))
	}
	// Results are in request order: each must match the sequential answer.
	// (Embedding in the batch envelope re-indents the JSON, so compare the
	// compacted forms.)
	for i, doc := range docs {
		seq := post(t, s, "/v1/allocate", allocateBody(doc, ""))
		var a, b bytes.Buffer
		if err := json.Compact(&a, seq.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&b, resp.Results[i]); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("result %d differs from sequential allocate:\n%s\nvs\n%s", i, b.String(), a.String())
		}
	}
	// Re-running the batch (all cache hits now) is byte-identical.
	second := post(t, s, "/v1/allocate/batch", body)
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("repeated batch response differs")
	}
	// And a different worker count produces the same bytes on a cold cache.
	s2 := newServer(t)
	w1 := post(t, s2, "/v1/allocate/batch", strings.Replace(body, `"workers": 4`, `"workers": 1`, 1))
	if !bytes.Equal(first.Body.Bytes(), w1.Body.Bytes()) {
		t.Fatal("batch response depends on worker count")
	}
}

func TestBatchCancelledByServerClose(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	docs := batchTasksets(100)
	body := fmt.Sprintf(`{"scheme": "test-slow", "workers": 1, "tasksets": [%s]}`, strings.Join(docs, ","))
	done := make(chan *httptest.ResponseRecorder, 1)
	start := time.Now()
	go func() {
		done <- post(t, s, "/v1/allocate/batch", body)
	}()
	time.Sleep(60 * time.Millisecond) // let a cell or two start
	s.Close()
	w := <-done
	elapsed := time.Since(start)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body)
	}
	// 100 cells x 30ms on one worker would be 3s; cancellation between cells
	// must cut that to roughly the in-flight cell plus overhead.
	if elapsed > time.Second {
		t.Fatalf("cancelled batch took %v", elapsed)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	s := newServer(t)
	res := post(t, s, "/v1/allocate", allocateBody(sampleTaskset, ""))
	verifyBody := fmt.Sprintf(`{"taskset": %s, "result": %s}`, sampleTaskset, strings.TrimSpace(res.Body.String()))
	w := post(t, s, "/v1/verify", verifyBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Valid || !vr.ExactValid {
		t.Fatalf("valid allocation rejected: %+v", vr)
	}

	// Tamper: shrink a period below WCET-feasible range.
	var rj tasksetio.ResultJSON
	if err := json.Unmarshal(res.Body.Bytes(), &rj); err != nil {
		t.Fatal(err)
	}
	rj.Tasks[0].PeriodMS = 1
	tampered, _ := json.Marshal(rj)
	w = post(t, s, "/v1/verify", fmt.Sprintf(`{"taskset": %s, "result": %s}`, sampleTaskset, tampered))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Valid {
		t.Fatalf("tampered result accepted: %+v", vr)
	}

	// The partition checked is the one core.Verify analyzes: the result's,
	// else the taskset's. Either way an overloaded core 0 invalidates the
	// result on both counts.
	result := `{"scheme": "hydra", "schedulable": true, "cumulative_tightness": 1,
	  "tasks": [{"name": "tw", "core": 1, "period_ms": 1000, "tightness": 1, "accepted": true}]%s}`
	unpinned := strings.Replace(pinnedOverload, `"rt_partition": [0, 0]`, `"rt_partition": null`, 1)
	for _, tc := range []struct{ name, taskset, result string }{
		{"taskset-pins", pinnedOverload, fmt.Sprintf(result, "")},
		{"result-pins", unpinned, fmt.Sprintf(result, `, "rt_partition": [{"name": "a", "core": 0}, {"name": "b", "core": 0}]`)},
	} {
		w = post(t, s, "/v1/verify", fmt.Sprintf(`{"taskset": %s, "result": %s}`, tc.taskset, tc.result))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, w.Code, w.Body)
		}
		vr = VerifyResponse{}
		if err := json.Unmarshal(w.Body.Bytes(), &vr); err != nil {
			t.Fatal(err)
		}
		if vr.Valid || vr.ExactValid || !strings.Contains(vr.Error, "core 0") || !strings.Contains(vr.ExactError, "core 0") {
			t.Fatalf("%s: overloaded core 0 accepted: %+v", tc.name, vr)
		}
	}
	// A result placing a real-time task outside [0, cores) is a bad request.
	onePinned := `{"cores": 2, "rt_tasks": [{"name": "ctl", "wcet_ms": 5, "period_ms": 20}], "security_tasks": [], "rt_partition": [0]}`
	for _, c := range []int{99, -1} {
		body := fmt.Sprintf(`{"taskset": %s, "result": {"scheme": "hydra", "schedulable": true, "cumulative_tightness": 0,
		  "rt_partition": [{"name": "ctl", "core": %d}]}}`, onePinned, c)
		if w := post(t, s, "/v1/verify", body); w.Code != http.StatusBadRequest {
			t.Fatalf("result rt_partition core %d: status %d, want 400: %s", c, w.Code, w.Body)
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s := newServer(t)
	w := post(t, s, "/v1/simulate", allocateBody(sampleTaskset, `"horizon_ms": 5000`))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Schedulable || len(sr.Cores) != 2 || sr.HorizonMS != 5000 {
		t.Fatalf("unexpected simulation: %+v", sr)
	}
	if sr.TotalMisses != 0 {
		t.Fatalf("verified allocation missed deadlines in simulation: %+v", sr)
	}
	// Horizon bounds are enforced.
	if w := post(t, s, "/v1/simulate", allocateBody(sampleTaskset, `"horizon_ms": 99999999999`)); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized horizon: status %d", w.Code)
	}
	// A pinned partition that fails exact RTA is not simulated.
	w = post(t, s, "/v1/simulate", allocateBody(pinnedOverload, ""))
	sr = SimulateResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || sr.Schedulable || len(sr.Cores) != 0 || !strings.Contains(sr.Reason, "core 0") {
		t.Fatalf("pinned overload: status %d, %+v", w.Code, sr)
	}
}

func TestSchemesEndpoint(t *testing.T) {
	s := newServer(t)
	w := get(t, s, "/v1/schemes")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var sr SchemesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, n := range sr.Schemes {
		have[n] = true
	}
	for _, want := range []string{"hydra", "singlecore", "opt", "partition-best-fit"} {
		if !have[want] {
			t.Fatalf("schemes listing missing %q: %v", want, sr.Schemes)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := newServer(t)
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
}

// TestConcurrentHammerSingleflight fires many concurrent identical requests
// at a counting allocator: the singleflight layer must collapse them into
// exactly one allocation, and every caller must receive identical bytes.
// Run with -race.
func TestConcurrentHammerSingleflight(t *testing.T) {
	s := newServer(t)
	body := allocateBody(sampleTaskset, `"scheme": "test-counting"`)
	countingAlloc.calls.Store(0)
	const goroutines = 64
	bodies := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := post(t, s, "/v1/allocate", body)
			if w.Code == http.StatusOK {
				bodies[g] = w.Body.Bytes()
			}
		}(g)
	}
	wg.Wait()
	if calls := countingAlloc.calls.Load(); calls != 1 {
		t.Fatalf("allocator ran %d times under concurrent identical load, want 1", calls)
	}
	for g := 1; g < goroutines; g++ {
		if bodies[g] == nil || !bytes.Equal(bodies[0], bodies[g]) {
			t.Fatalf("goroutine %d got a different (or no) body", g)
		}
	}
	var st StatsResponse
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits+st.Cache.Coalesced != goroutines-1 {
		t.Fatalf("cache stats after hammer: %+v", st.Cache)
	}
}

// TestEndToEndOverHTTP exercises the full stack through a real listener.
func TestEndToEndOverHTTP(t *testing.T) {
	s := newServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(allocateBody(sampleTaskset, "")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var rj tasksetio.ResultJSON
	if err := json.Unmarshal(raw, &rj); err != nil {
		t.Fatal(err)
	}
	if !rj.Schedulable {
		t.Fatalf("allocation over HTTP: %+v", rj)
	}
}

func TestCacheLRUBound(t *testing.T) {
	c := NewCache(2)
	val := func(s string) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(s), nil }
	}
	c.Do("a", val("A"))
	c.Do("b", val("B"))
	if v, o, _ := c.Do("a", val("never")); o != OutcomeHit || string(v) != "A" {
		t.Fatalf("a: outcome=%v v=%q", o, v) // refresh: a is MRU
	}
	c.Do("c", val("C")) // evicts b (LRU), keeps the refreshed a
	if _, o, _ := c.Do("b", val("B2")); o.FromMemory() {
		t.Fatal("b should have been evicted")
	}
	if v, o, _ := c.Do("c", val("never")); o != OutcomeHit || string(v) != "C" {
		t.Fatalf("c: outcome=%v v=%q", o, v)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 2 || st.Capacity != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(4)
	calls := 0
	fail := func() ([]byte, error) { calls++; return nil, fmt.Errorf("boom %d", calls) }
	if _, _, err := c.Do("k", fail); err == nil {
		t.Fatal("want error")
	}
	if _, o, err := c.Do("k", fail); err == nil || o.FromMemory() {
		t.Fatalf("errors must not be cached: outcome=%v err=%v", o, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

// TestCachePanicDoesNotPoisonKey: a panicking computation must release its
// singleflight slot (waiters get an error, later calls recompute) instead of
// leaving the key permanently in flight.
func TestCachePanicDoesNotPoisonKey(t *testing.T) {
	c := NewCache(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate")
			}
		}()
		c.Do("k", func() ([]byte, error) { panic("boom") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, o, err := c.Do("k", func() ([]byte, error) { return []byte("ok"), nil }); err != nil || o.FromMemory() || string(v) != "ok" {
			t.Errorf("after panic: v=%q outcome=%v err=%v", v, o, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key poisoned: Do blocked after a panicking computation")
	}
}
