package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hydra/internal/stats"
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

func benchRequest(b *testing.B, h http.Handler, body string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/allocate", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body)
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
