package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hydra/internal/stats"
	"hydra/internal/taskgen"
	"hydra/internal/tasksetio"
)

// benchDoc yields a schedulable taskset made unique by i, defeating the
// cache so every request allocates from scratch.
func benchDoc(i int) string {
	return fmt.Sprintf(`{"taskset": {
	  "cores": 2,
	  "rt_tasks": [
	    {"name": "ctl", "wcet_ms": 5, "period_ms": 20},
	    {"name": "nav", "wcet_ms": 30, "period_ms": 100}
	  ],
	  "security_tasks": [
	    {"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": %d},
	    {"name": "bro", "wcet_ms": 30, "desired_period_ms": 500, "max_period_ms": 5000}
	  ]
	}}`, 10000+i)
}

func benchRequest(tb testing.TB, h http.Handler, body string) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/allocate", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", w.Code, w.Body)
	}
}

// BenchmarkServeAllocateCold measures the full request path with a cache
// miss on every iteration: decode, canonicalize, partition, allocate,
// verify, encode.
func BenchmarkServeAllocateCold(b *testing.B) {
	s, err := New(Config{CacheSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRequest(b, h, benchDoc(i))
	}
}

// TestAllocateColdAllocs pins the allocations of a cache-missing allocate
// of benchDoc through the full handler chain, tracing off, the test
// request, recorder and body included. Encoding the result with
// encoding/json cost 74.
func TestAllocateColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector runtime allocates; counts only meaningful without -race")
	}
	h := newServer(t).Handler()
	i := 0
	serve := func() {
		i++
		benchRequest(t, h, benchDoc(i))
	}
	serve() // warm the pools
	if allocs := testing.AllocsPerRun(200, serve); allocs > 59 {
		t.Fatalf("cold allocate = %.1f allocs/op, budget 59: the result fell back to encoding/json, or tracing leaked onto the untraced path", allocs)
	}
}

// BenchmarkServeAllocateColdTaskgen is BenchmarkServeAllocateCold on
// taskgen problems: 256 problems on M = 8 cores at U = 0.55·M, request i
// sending problem i mod 256 with its first security task renamed cold<i>, so
// that every request misses the cache. Their requests average 7.2 KB and
// their answers 6.5 KB, where benchDoc's answer is under 1 KB.
func BenchmarkServeAllocateColdTaskgen(b *testing.B) {
	const m = 8
	type template struct{ head, tail string } // the body around the name
	var pool []template
	for stream := int64(0); len(pool) < 256; stream++ {
		w, err := taskgen.Generate(taskgen.DefaultParams(m, 0.55*m), stats.Split(8, stream))
		if err != nil {
			continue
		}
		doc := tasksetio.Document{Cores: m}
		for _, t := range w.RT {
			doc.RTTasks = append(doc.RTTasks, tasksetio.RTTaskJSON{Name: t.Name, WCET: t.C, Period: t.T})
		}
		for _, s := range w.Sec {
			doc.SecurityTasks = append(doc.SecurityTasks, tasksetio.SecurityTaskJSON{Name: s.Name, WCET: s.C, DesiredPeriod: s.TDes, MaxPeriod: s.TMax})
		}
		doc.SecurityTasks[0].Name = "cold"
		body, err := json.Marshal(AllocateRequest{Taskset: doc})
		if err != nil {
			b.Fatal(err)
		}
		head, tail, _ := strings.Cut(string(body), `"cold"`)
		pool = append(pool, template{head + `"cold`, `"` + tail})
	}
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := pool[i%len(pool)]
		benchRequest(b, h, t.head+strconv.Itoa(i)+t.tail)
	}
}

// BenchmarkServeAllocateCacheHit measures the steady-state serving path:
// the same request answered from the canonical-hash cache.
func BenchmarkServeAllocateCacheHit(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := benchDoc(0)
	benchRequest(b, h, body) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, h, body)
	}
}

// bigSystemBody is the POST /v1/systems body of system "big": eight
// real-time tasks of total utilization 1.6 and n security tasks of total
// desired utilization 1.2 on four cores, with TDes drawn from [1000, 3000]
// ms and TMax = 10 TDes, the ranges of hydra-bench's systems-durable
// admits. With n = 600 its document is about 150 KB, the size a GET of a
// busy system returns there.
func bigSystemBody(tb testing.TB, n int) string {
	tb.Helper()
	rng := stats.Split(600, 1)
	doc := tasksetio.Document{Cores: 4}
	for i := 0; i < 8; i++ {
		period := 10 * float64(int(1)<<i)
		doc.RTTasks = append(doc.RTTasks, tasksetio.RTTaskJSON{Name: fmt.Sprintf("r%d", i), WCET: 0.2 * period, Period: period})
	}
	for i := 0; i < n; i++ {
		tdes := 1000 + 2000*rng.Float64()
		doc.SecurityTasks = append(doc.SecurityTasks, tasksetio.SecurityTaskJSON{
			Name: fmt.Sprintf("s%03d", i), WCET: 1.2 / float64(n) * tdes * (0.5 + rng.Float64()),
			DesiredPeriod: tdes, MaxPeriod: 10 * tdes,
		})
	}
	body, err := json.Marshal(SystemCreateRequest{ID: "big", Taskset: doc})
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

// newBigSystemServer serves system "big" of bigSystemBody with n security
// tasks, tracing off.
func newBigSystemServer(tb testing.TB, n int) *Server {
	tb.Helper()
	s, err := New(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	req := httptest.NewRequest(http.MethodPost, "/v1/systems", strings.NewReader(bigSystemBody(tb, n)))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		tb.Fatalf("create big system: %d %s", w.Code, w.Body)
	}
	return s
}

// getBigSystem GETs system "big" through h.
func getBigSystem(tb testing.TB, h http.Handler) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/systems/big", nil))
	if w.Code != http.StatusOK {
		tb.Fatalf("GET big system: %d %s", w.Code, w.Body)
	}
}

// BenchmarkServeSystemGet measures GET /v1/systems/{id} of a system with
// 600 security tasks: snapshot, render and write of a document of about
// 150 KB.
func BenchmarkServeSystemGet(b *testing.B) {
	h := newBigSystemServer(b, 600).Handler()
	getBigSystem(b, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		getBigSystem(b, h)
	}
}
