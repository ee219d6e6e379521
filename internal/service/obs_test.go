package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hydra/internal/obs"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// scrapeMetrics fetches /metrics and parses the exposition into a
// series → value map.
func scrapeMetrics(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	series, err := obs.ParsePrometheus(w.Body)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	return series
}

// normalizeExposition replaces every sample value with "V", keeping names,
// labels and comment lines: the golden pins the series set and ordering, not
// the (run-dependent) values.
func normalizeExposition(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if sp := strings.LastIndexByte(line, ' '); sp >= 0 {
			lines[i] = line[:sp] + " V"
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsGolden pins the full series set of the exposition: every family,
// every label combination, in registration order.
func TestMetricsGolden(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// A miss and a hit, so the scrape reflects live traffic (values are
	// normalized away; this guards against a scrape-time panic under load).
	post(t, s, "/v1/allocate", allocateBody(sampleTaskset, ""))
	post(t, s, "/v1/allocate", allocateBody(sampleTaskset, ""))

	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", w.Code, w.Body)
	}
	got := normalizeExposition(w.Body.String())
	path := filepath.Join("testdata", "metrics.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden %s:\ngot:\n%s", path, got)
	}
}

// TestMetricsStatsAgree asserts the exposition is a lossless superset of
// /v1/stats: every count the JSON stats report must be recoverable from the
// scrape, so dashboards built on either surface agree.
func TestMetricsStatsAgree(t *testing.T) {
	s := newServer(t)

	// Traffic: one cold allocate, two hits, plus a hosted system with one
	// admission (which also exercises the WAL observer).
	for i := 0; i < 3; i++ {
		if w := post(t, s, "/v1/allocate", allocateBody(sampleTaskset, "")); w.Code != http.StatusOK {
			t.Fatalf("allocate %d: %d %s", i, w.Code, w.Body)
		}
	}
	if w := post(t, s, "/v1/systems", createSystemBody("obs-agree")); w.Code != http.StatusCreated {
		t.Fatalf("create system: %d %s", w.Code, w.Body)
	}
	if w := post(t, s, "/v1/systems/obs-agree/tasks",
		`{"security_task": {"name": "scan", "wcet_ms": 10, "desired_period_ms": 2000, "max_period_ms": 20000}}`); w.Code != http.StatusOK {
		t.Fatalf("add task: %d %s", w.Code, w.Body)
	}

	var stats StatsResponse
	w := get(t, s, "/v1/stats")
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	series := scrapeMetrics(t, s)

	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{`hydra_allocate_seconds_count{outcome="cold"}`, series[`hydra_allocate_seconds_count{outcome="cold"}`], float64(stats.Allocate.Cold.Count)},
		{`hydra_allocate_seconds_count{outcome="hit"}`, series[`hydra_allocate_seconds_count{outcome="hit"}`], float64(stats.Allocate.Hit.Count)},
		{`hydra_allocate_seconds_count{outcome="coalesced"}`, series[`hydra_allocate_seconds_count{outcome="coalesced"}`], float64(stats.Allocate.Coalesced.Count)},
		{"sum hydra_cache_hits_total", obs.SumSeries(series, "hydra_cache_hits_total"), float64(stats.Cache.Hits)},
		{"sum hydra_cache_misses_total", obs.SumSeries(series, "hydra_cache_misses_total"), float64(stats.Cache.Misses)},
		{"sum hydra_cache_coalesced_total", obs.SumSeries(series, "hydra_cache_coalesced_total"), float64(stats.Cache.Coalesced)},
		{"sum hydra_cache_evictions_total", obs.SumSeries(series, "hydra_cache_evictions_total"), float64(stats.Cache.Evictions)},
		{"hydra_cache_entries", series["hydra_cache_entries"], float64(stats.Cache.Entries)},
		{"hydra_cache_capacity", series["hydra_cache_capacity"], float64(stats.Cache.Capacity)},
		{"hydra_jobs_submitted_total", series["hydra_jobs_submitted_total"], float64(stats.Jobs.Submitted)},
		{"hydra_jobs_queued", series["hydra_jobs_queued"], float64(stats.Jobs.Queued)},
		{"hydra_systems_active", series["hydra_systems_active"], float64(stats.Systems.Active)},
		{"hydra_systems_created_total", series["hydra_systems_created_total"], float64(stats.Systems.Created)},
		{"hydra_systems_admitted_total", series["hydra_systems_admitted_total"], float64(stats.Systems.Admitted)},
		{"hydra_systems_events_total", series["hydra_systems_events_total"], float64(stats.Systems.Events)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, stats say %v", c.name, c.got, c.want)
		}
	}
	if got := series[`hydra_http_requests_total{route="POST /v1/allocate",code="2xx"}`]; got != 3 {
		t.Errorf("allocate 2xx counter = %v, want 3", got)
	}
	if got := series["hydra_wal_append_seconds_count"]; got < 1 {
		t.Errorf("WAL append count = %v, want >= 1 (the admission op)", got)
	}
	if sampled := stats.Allocate.Cold.Count + stats.Allocate.Hit.Count; sampled != 3 {
		t.Errorf("stats allocate counts sum to %d, want 3", sampled)
	}
}

// postWithHeader is post with one extra request header.
func postWithHeader(t *testing.T, s *Server, path, body, key, val string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set(key, val)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestTracesEndpoint exercises the head-sampled trace ring end to end:
// request-id propagation and generation, the recorded span trees of a cold
// allocate and of a systems create and admit, the min_ms filter, and its
// validation.
func TestTracesEndpoint(t *testing.T) {
	s, err := New(Config{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	w := postWithHeader(t, s, "/v1/allocate", allocateBody(sampleTaskset, ""), "X-Request-Id", "req-cold-1")
	if w.Code != http.StatusOK {
		t.Fatalf("allocate: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Request-Id"); got != "req-cold-1" {
		t.Fatalf("X-Request-Id echo = %q, want req-cold-1", got)
	}
	anon := post(t, s, "/v1/allocate", allocateBody(sampleTaskset, ""))
	if got := anon.Header().Get("X-Request-Id"); got == "" {
		t.Fatal("no generated X-Request-Id on headerless request")
	}
	if w := postWithHeader(t, s, "/v1/systems", createSystemBody("traced"), "X-Request-Id", "req-sys-create"); w.Code != http.StatusCreated {
		t.Fatalf("create system: %d %s", w.Code, w.Body)
	}
	if w := postWithHeader(t, s, "/v1/systems/traced/tasks",
		`{"security_task": {"name": "scan", "wcet_ms": 10, "desired_period_ms": 2000, "max_period_ms": 20000}}`,
		"X-Request-Id", "req-sys-admit"); w.Code != http.StatusOK {
		t.Fatalf("admit: %d %s", w.Code, w.Body)
	}

	var resp TracesResponse
	tw := get(t, s, "/v1/debug/traces")
	if tw.Code != http.StatusOK {
		t.Fatalf("traces: %d %s", tw.Code, tw.Body)
	}
	if err := json.Unmarshal(tw.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode traces: %v", err)
	}
	if resp.Sample != 1 {
		t.Fatalf("sample = %d, want 1", resp.Sample)
	}
	if resp.Sampled < 2 {
		t.Fatalf("sampled = %d, want >= 2", resp.Sampled)
	}
	byID := make(map[string]obs.TraceJSON, len(resp.Traces))
	for _, tr := range resp.Traces {
		byID[tr.RequestID] = tr
	}
	for _, c := range []struct {
		id, route string
		spans     []string
	}{
		{"req-cold-1", "POST /v1/allocate", []string{"decode", "canonical-key", "cache-do", "allocate-compute", "write-body"}},
		{"req-sys-create", "POST /v1/systems", []string{"decode", "persist-apply"}},
		{"req-sys-admit", "POST /v1/systems/{id}/tasks", []string{"decode", "persist-apply"}},
	} {
		tr, ok := byID[c.id]
		if !ok {
			t.Fatalf("trace %s not in ring: %s", c.id, tw.Body)
		}
		if tr.Route != c.route {
			t.Fatalf("trace %s route = %q, want %q", c.id, tr.Route, c.route)
		}
		names := make(map[string]bool, len(tr.Spans))
		for _, sp := range tr.Spans {
			names[sp.Name] = true
		}
		for _, n := range c.spans {
			if !names[n] {
				t.Errorf("trace %s missing span %q (have %v)", c.id, n, tr.Spans)
			}
		}
	}

	// An absurd min_ms filters everything; a malformed one is a 400.
	var empty TracesResponse
	fw := get(t, s, "/v1/debug/traces?min_ms=3600000")
	if err := json.Unmarshal(fw.Body.Bytes(), &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Traces) != 0 {
		t.Fatalf("min_ms=3600000 returned %d traces", len(empty.Traces))
	}
	if bad := get(t, s, "/v1/debug/traces?min_ms=banana"); bad.Code != http.StatusBadRequest {
		t.Fatalf("min_ms=banana: status %d, want 400", bad.Code)
	}
	if bad := get(t, s, "/v1/debug/traces?min_ms=-1"); bad.Code != http.StatusBadRequest {
		t.Fatalf("min_ms=-1: status %d, want 400", bad.Code)
	}
}

// TestDebugHandlerServesMetricsAndPprof covers the separate debug listener's
// mux: the exposition, the trace ring and the pprof index all answer there.
func TestDebugHandlerServesMetricsAndPprof(t *testing.T) {
	s := newServer(t)
	h := s.DebugHandler()
	for _, path := range []string{"/metrics", "/v1/debug/traces", "/debug/pprof/"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Errorf("%s: status %d", path, w.Code)
		}
	}
}

// TestMiddlewareZeroAllocs pins the zero-overhead-when-off contract: with
// tracing disabled and no logger, a cache-hit allocate through the full
// instrumented handler chain stays within its allocation budget of 41
// allocs/op, the test request and recorder included. The budget also pins
// the plain-body decoder: decoding this body with encoding/json instead
// costs about 20 more.
func TestMiddlewareZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector runtime allocates; counts only meaningful without -race")
	}
	s := newServer(t)
	h := s.Handler()
	body := allocateBody(sampleTaskset, "")
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/allocate", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			panic("allocate failed: " + w.Body.String())
		}
	}
	serve() // prime the cache and the pools
	serve()
	if allocs := testing.AllocsPerRun(200, serve); allocs > 41 {
		t.Fatalf("cache-hit request = %.1f allocs/op, budget 41 — instrumentation leaked onto the hot path, or the body fell back to encoding/json", allocs)
	}
}

// TestObsConcurrentScrape hammers serving, scraping and the trace ring from
// many goroutines at once; run under -race this pins the scrape snapshot and
// tracer locking.
func TestObsConcurrentScrape(t *testing.T) {
	s, err := New(Config{TraceSample: 2, TraceRing: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	body := allocateBody(sampleTaskset, "")
	post(t, s, "/v1/allocate", body) // prime

	const perWorker = 50
	var wg sync.WaitGroup
	paths := []struct {
		method, path, body string
	}{
		{http.MethodPost, "/v1/allocate", body},
		{http.MethodPost, "/v1/allocate", body},
		{http.MethodPost, "/v1/allocate", body},
		{http.MethodGet, "/metrics", ""},
		{http.MethodGet, "/metrics", ""},
		{http.MethodGet, "/v1/debug/traces", ""},
		{http.MethodGet, "/v1/stats", ""},
	}
	h := s.Handler()
	for _, p := range paths {
		wg.Add(1)
		go func(method, path, body string) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var r *http.Request
				if body != "" {
					r = httptest.NewRequest(method, path, strings.NewReader(body))
				} else {
					r = httptest.NewRequest(method, path, nil)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					t.Errorf("%s %s: status %d", method, path, w.Code)
					return
				}
			}
		}(p.method, p.path, p.body)
	}
	wg.Wait()

	series := scrapeMetrics(t, s)
	if got := series[`hydra_http_requests_total{route="POST /v1/allocate",code="2xx"}`]; got != 3*perWorker+1 {
		t.Fatalf("allocate 2xx counter = %v, want %d", got, 3*perWorker+1)
	}
	// The scrape goes through the instrumented mux, so the one request in
	// flight at render time is the scrape itself.
	if got := series["hydra_http_in_flight"]; got != 1 {
		t.Fatalf("in-flight gauge = %v after quiesce, want 1 (the scrape itself)", got)
	}
}

// TestVersionGolden pins the /v1/version shape. The toolchain string is the
// only run-dependent field (the test binary carries no VCS stamp), so it is
// substituted before comparing.
func TestVersionGolden(t *testing.T) {
	s := newServer(t)
	w := get(t, s, "/v1/version")
	if w.Code != http.StatusOK {
		t.Fatalf("version: %d %s", w.Code, w.Body)
	}
	var v VersionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode version: %v", err)
	}
	if v.GoVersion != runtime.Version() {
		t.Fatalf("go_version = %q, want %q", v.GoVersion, runtime.Version())
	}
	got := strings.ReplaceAll(w.Body.String(), runtime.Version(), "GOVERSION")
	path := filepath.Join("testdata", "version.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("version drifted from golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
