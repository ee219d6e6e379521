package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hydra/internal/core"
)

const serveSampleTaskset = `{
  "cores": 2,
  "rt_tasks": [
    {"name": "ctl", "wcet_ms": 5, "period_ms": 20},
    {"name": "nav", "wcet_ms": 30, "period_ms": 100}
  ],
  "security_tasks": [
    {"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}
  ]
}`

// slowAllocator drags out each allocation so shutdown races are observable.
type slowAllocator struct {
	calls atomic.Int64
	inner core.Allocator
}

func (a *slowAllocator) Name() string { return "test-serve-slow" }
func (a *slowAllocator) Allocate(in *core.Input) *core.Result {
	a.calls.Add(1)
	time.Sleep(30 * time.Millisecond)
	return a.inner.Allocate(in)
}

var slow = &slowAllocator{inner: core.MustLookup("hydra")}

func TestMain(m *testing.M) {
	core.Register(slow)
	os.Exit(m.Run())
}

// startServer runs the binary's run() on an ephemeral port and returns its
// base URL plus a channel carrying run's return value.
func startServer(t *testing.T, args ...string) (string, <-chan error) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, func(a net.Addr) { addrCh <- a }, nil)
	}()
	select {
	case a := <-addrCh:
		return "http://" + a.String(), errCh
	case err := <-errCh:
		t.Fatalf("server exited before binding: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not come up")
	}
	return "", nil
}

func interrupt(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
}

func waitExit(t *testing.T, errCh <-chan error) {
	t.Helper()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("server exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestServeEndpointsAndGracefulShutdown(t *testing.T) {
	base, errCh := startServer(t)

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	for _, probe := range []struct {
		method, path, body string
	}{
		{"POST", "/v1/allocate", fmt.Sprintf(`{"taskset": %s}`, serveSampleTaskset)},
		{"POST", "/v1/allocate/batch", fmt.Sprintf(`{"tasksets": [%s]}`, serveSampleTaskset)},
		{"POST", "/v1/verify", ""}, // filled below
		{"POST", "/v1/simulate", fmt.Sprintf(`{"taskset": %s, "horizon_ms": 1000}`, serveSampleTaskset)},
		{"GET", "/v1/schemes", ""},
		{"GET", "/v1/stats", ""},
	} {
		var resp *http.Response
		var err error
		switch probe.method {
		case "GET":
			resp, err = http.Get(base + probe.path)
		default:
			body := probe.body
			if probe.path == "/v1/verify" {
				a, aerr := http.Post(base+"/v1/allocate", "application/json",
					strings.NewReader(fmt.Sprintf(`{"taskset": %s}`, serveSampleTaskset)))
				if aerr != nil {
					t.Fatal(aerr)
				}
				raw, _ := io.ReadAll(a.Body)
				a.Body.Close()
				body = fmt.Sprintf(`{"taskset": %s, "result": %s}`, serveSampleTaskset, raw)
			}
			resp, err = http.Post(base+probe.path, "application/json", strings.NewReader(body))
		}
		if err != nil {
			t.Fatalf("%s %s: %v", probe.method, probe.path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s %s: status %d: %s", probe.method, probe.path, resp.StatusCode, raw)
		}
		var v map[string]any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s %s: not JSON: %s", probe.method, probe.path, raw)
		}
	}

	interrupt(t)
	waitExit(t, errCh)
}

func TestSigintCancelsInflightBatch(t *testing.T) {
	base, errCh := startServer(t)

	// 100 distinct tasksets x 30ms on one worker = 3s of work; SIGINT must
	// cut it short by cancelling the batch context between cells.
	docs := make([]string, 100)
	for i := range docs {
		docs[i] = fmt.Sprintf(`{
		  "cores": 2,
		  "rt_tasks": [{"name": "ctl", "wcet_ms": 5, "period_ms": %d}],
		  "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}]
		}`, 20+i)
	}
	body := fmt.Sprintf(`{"scheme": "test-serve-slow", "workers": 1, "tasksets": [%s]}`, strings.Join(docs, ","))

	type batchOutcome struct {
		status int
		err    error
	}
	outcome := make(chan batchOutcome, 1)
	start := time.Now()
	go func() {
		resp, err := http.Post(base+"/v1/allocate/batch", "application/json", strings.NewReader(body))
		if err != nil {
			outcome <- batchOutcome{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		outcome <- batchOutcome{status: resp.StatusCode}
	}()

	// Wait until the slow allocator is actually running a cell.
	for i := 0; slow.calls.Load() == 0; i++ {
		if i > 500 {
			t.Fatal("batch never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	interrupt(t)
	waitExit(t, errCh)
	elapsed := time.Since(start)

	o := <-outcome
	if o.err != nil {
		t.Fatalf("batch request failed at transport level: %v", o.err)
	}
	if o.status != http.StatusServiceUnavailable {
		t.Fatalf("batch status %d, want 503", o.status)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("shutdown with in-flight batch took %v; cancellation is not prompt", elapsed)
	}
	if calls := slow.calls.Load(); calls >= 100 {
		t.Fatalf("batch ran all %d cells despite cancellation", calls)
	}
}

// experimentJSON posts/gets helpers for the campaign endpoints.
func postExperiment(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &st); err != nil || st.ID == "" {
		t.Fatalf("submit response %s: %v", raw, err)
	}
	return st.ID
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v in %s", url, err, raw)
		}
	}
	return resp.StatusCode
}

type jobStatus struct {
	ID            string  `json:"id"`
	State         string  `json:"state"`
	TotalCells    int     `json:"total_cells"`
	DoneCells     int     `json:"done_cells"`
	ReplayedCells int     `json:"replayed_cells"`
	EtaMS         float64 `json:"eta_ms"`
	Error         string  `json:"error"`
}

func waitJobDone(t *testing.T, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st jobStatus
		if code := getJSON(t, base+"/v1/experiments/"+id, &st); code != http.StatusOK {
			t.Fatalf("status: %d", code)
		}
		if st.State == "done" || st.State == "failed" || st.State == "cancelled" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("campaign never finished")
	return jobStatus{}
}

func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/experiments/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// The acceptance test of the campaign tentpole: a campaign killed by a real
// in-process SIGINT mid-grid resumes from its -jobs-dir checkpoint on the
// next server start and emits a result byte-identical to an uninterrupted
// run.
func TestSigintInterruptsAndCampaignResumesOnRestart(t *testing.T) {
	// 19 levels x 3200 draws = 60800 cells: the grid is sized so the
	// one-worker run takes whole seconds on a fast machine — the interrupt
	// below must land while the grid is still mid-flight, and each time the
	// per-cell cost halves this window halves with it (the 15200-cell grid
	// flaked once cells hit ~60µs). The reference runs the same grid at 8
	// workers — the engine's determinism guarantee makes the results
	// byte-identical anyway, so the comparison also re-proves worker-count
	// independence.
	campaign := `{"experiment": "fig2", "config": {"M": 2, "TasksetsPerPoint": 3200, "UtilStepFrac": 0.05, "Seed": 9, "Workers": 1}}`
	reference := strings.Replace(campaign, `"Workers": 1`, `"Workers": 8`, 1)

	// Uninterrupted reference run (sequential: SIGINT is process-wide, so
	// only one server lives at a time).
	refBase, refErrCh := startServer(t, "-jobs-dir", t.TempDir())
	refID := postExperiment(t, refBase, reference)
	if st := waitJobDone(t, refBase, refID); st.State != "done" {
		t.Fatalf("reference campaign: %+v", st)
	}
	want := fetchResult(t, refBase, refID)
	interrupt(t)
	waitExit(t, refErrCh)

	// Interrupted run: SIGINT once the campaign has checkpointed some cells.
	jobsDir := t.TempDir()
	base, errCh := startServer(t, "-jobs-dir", jobsDir)
	id := postExperiment(t, base, campaign)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st jobStatus
		getJSON(t, base+"/v1/experiments/"+id, &st)
		// Interrupt early but well inside the grid: past the first
		// checkpoint flushes, with most of the grid still ahead so the
		// SIGINT cannot race the campaign's natural completion.
		if st.DoneCells >= 100 && st.TotalCells > 0 && st.DoneCells <= st.TotalCells/4 {
			break
		}
		if st.State == "done" || time.Now().After(deadline) {
			t.Fatalf("campaign too fast or stuck to interrupt mid-grid: %+v", st)
		}
	}
	interrupt(t)
	waitExit(t, errCh)

	// Restart on the same jobs dir: the campaign resumes automatically
	// under its original id and completes.
	base2, errCh2 := startServer(t, "-jobs-dir", jobsDir)
	final := waitJobDone(t, base2, id)
	if final.State != "done" {
		t.Fatalf("resumed campaign: %+v", final)
	}
	if final.ReplayedCells < 100 || final.ReplayedCells >= final.TotalCells {
		t.Fatalf("resume replayed %d of %d cells, want a partial replay", final.ReplayedCells, final.TotalCells)
	}
	got := fetchResult(t, base2, id)
	if string(got) != string(want) {
		t.Fatal("resumed campaign result differs from uninterrupted run")
	}
	var stats struct {
		Jobs struct {
			Resumed uint64 `json:"resumed"`
			Done    int    `json:"done"`
		} `json:"jobs"`
	}
	getJSON(t, base2+"/v1/stats", &stats)
	if stats.Jobs.Resumed != 1 || stats.Jobs.Done != 1 {
		t.Fatalf("job stats after restart: %+v", stats.Jobs)
	}
	interrupt(t)
	waitExit(t, errCh2)
}

// postJSON posts a body and returns status + raw response.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw
}

func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw
}

// The acceptance test of the durable-systems tentpole: systems created and
// mutated before a real in-process SIGINT come back on the next server start
// from the same -systems-dir — same committed state byte for byte, event
// versions contiguous across the restart — and keep taking mutations.
func TestSigintAndDurableSystemsRecoverOnRestart(t *testing.T) {
	systemsDir := t.TempDir()
	base, errCh := startServer(t, "-systems-dir", systemsDir, "-snapshot-every", "3")

	for _, id := range []string{"alpha", "beta"} {
		if code, raw := postJSON(t, base+"/v1/systems",
			fmt.Sprintf(`{"id": %q, "taskset": %s}`, id, serveSampleTaskset)); code != http.StatusCreated {
			t.Fatalf("create %s: status %d: %s", id, code, raw)
		}
	}
	// Mutate alpha past the snapshot cadence so recovery exercises
	// snapshot restore + tail replay, not just a full log replay.
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"security_task": {"name": "s%d", "wcet_ms": 1, "desired_period_ms": 2000, "max_period_ms": 30000}}`, i)
		if code, raw := postJSON(t, base+"/v1/systems/alpha/tasks", body); code != http.StatusOK {
			t.Fatalf("admit s%d: status %d: %s", i, code, raw)
		}
	}
	resp, err := http.NewRequest(http.MethodDelete, base+"/v1/systems/alpha/tasks/s1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := http.DefaultClient.Do(resp); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("remove s1: %v %v", r, err)
	} else {
		r.Body.Close()
	}
	var pre struct {
		Version uint64 `json:"version"`
	}
	_, alphaBytes := getRaw(t, base+"/v1/systems/alpha")
	if err := json.Unmarshal(alphaBytes, &pre); err != nil || pre.Version == 0 {
		t.Fatalf("alpha detail %s: %v", alphaBytes, err)
	}
	_, betaBytes := getRaw(t, base+"/v1/systems/beta")

	interrupt(t)
	waitExit(t, errCh)

	base2, errCh2 := startServer(t, "-systems-dir", systemsDir, "-snapshot-every", "3")
	var list SystemListProbe
	if code := getJSON(t, base2+"/v1/systems", &list); code != http.StatusOK {
		t.Fatalf("list after restart: %d", code)
	}
	if len(list.Systems) != 2 {
		t.Fatalf("recovered %d systems, want 2: %+v", len(list.Systems), list.Systems)
	}
	if _, raw := getRaw(t, base2+"/v1/systems/alpha"); string(raw) != string(alphaBytes) {
		t.Fatalf("alpha state changed across restart:\n%s\nvs\n%s", raw, alphaBytes)
	}
	if _, raw := getRaw(t, base2+"/v1/systems/beta"); string(raw) != string(betaBytes) {
		t.Fatalf("beta state changed across restart:\n%s\nvs\n%s", raw, betaBytes)
	}
	// Event versions must continue exactly where the previous life stopped.
	code, raw := postJSON(t, base2+"/v1/systems/alpha/tasks",
		`{"security_task": {"name": "post-restart", "wcet_ms": 1, "desired_period_ms": 2000, "max_period_ms": 30000}}`)
	if code != http.StatusOK {
		t.Fatalf("admit after restart: status %d: %s", code, raw)
	}
	var admit struct {
		Admitted bool   `json:"admitted"`
		Version  uint64 `json:"version"`
	}
	if err := json.Unmarshal(raw, &admit); err != nil || !admit.Admitted {
		t.Fatalf("admit after restart: %s (%v)", raw, err)
	}
	if admit.Version != pre.Version+1 {
		t.Fatalf("post-restart version %d, want contiguous %d", admit.Version, pre.Version+1)
	}
	interrupt(t)
	waitExit(t, errCh2)
}

// SystemListProbe decodes just enough of the systems list.
type SystemListProbe struct {
	Systems []struct {
		ID string `json:"id"`
	} `json:"systems"`
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard, nil, nil); err == nil {
		t.Fatal("unknown flag must error")
	}
	if err := run([]string{"-addr", "256.256.256.256:99999"}, io.Discard, nil, nil); err == nil {
		t.Fatal("unlistenable address must error")
	}
	for flagArgs, name := range map[string]string{
		"-trace-sample,-1":                  "trace-sample",
		"-log-level,loud":                   "log-level",
		"-log-format,yaml":                  "log-format",
		"-debug-addr,256.256.256.256:99999": "debug listener",
	} {
		args := strings.Split(flagArgs, ",")
		if name == "debug listener" {
			args = append([]string{"-addr", "127.0.0.1:0"}, args...)
		}
		err := run(args, io.Discard, nil, nil)
		if err == nil {
			t.Fatalf("%v must error", args)
		}
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("%v: error %q does not name %q", args, err, name)
		}
	}
}

// TestDebugListenerServesOperationalSurface: -debug-addr brings up a second
// listener with /metrics, the trace ring and pprof; the API port serves
// /metrics too but never pprof.
func TestDebugListenerServesOperationalSurface(t *testing.T) {
	debugCh := make(chan net.Addr, 1)
	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-trace-sample", "1"},
			io.Discard, func(a net.Addr) { addrCh <- a }, func(a net.Addr) { debugCh <- a })
	}()
	var base, debugBase string
	for i := 0; i < 2; i++ {
		select {
		case a := <-addrCh:
			base = "http://" + a.String()
		case a := <-debugCh:
			debugBase = "http://" + a.String()
		case err := <-errCh:
			t.Fatalf("server exited before binding: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("listeners did not come up")
		}
	}

	// Traffic so the trace ring and request counters have content.
	if code, raw := postJSON(t, base+"/v1/allocate", fmt.Sprintf(`{"taskset": %s}`, serveSampleTaskset)); code != 200 {
		t.Fatalf("allocate: %d %s", code, raw)
	}

	code, raw := getRaw(t, debugBase+"/metrics")
	if code != 200 || !strings.Contains(string(raw), "hydra_http_requests_total") {
		t.Fatalf("debug /metrics: %d %.200s", code, raw)
	}
	var traces struct {
		Traces []struct {
			Route string `json:"route"`
		} `json:"traces"`
	}
	if code := getJSON(t, debugBase+"/v1/debug/traces", &traces); code != 200 {
		t.Fatalf("debug traces: %d", code)
	}
	if len(traces.Traces) == 0 {
		t.Fatal("trace ring empty with -trace-sample 1")
	}
	if code, _ := getRaw(t, debugBase+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("debug pprof cmdline: %d", code)
	}
	if code, raw := getRaw(t, base+"/metrics"); code != 200 || !strings.Contains(string(raw), "hydra_go_goroutines") {
		t.Fatalf("API /metrics: %d %.200s", code, raw)
	}
	if code, _ := getRaw(t, base+"/debug/pprof/cmdline"); code == 200 {
		t.Fatal("pprof must not be served on the API port")
	}

	interrupt(t)
	waitExit(t, errCh)
}

// TestStructuredLogs: lifecycle logs come out as JSON when asked, and
// -log-level debug turns on the per-request access log with the request id.
func TestStructuredLogs(t *testing.T) {
	var buf syncBuffer
	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-addr", "127.0.0.1:0", "-log-format", "json", "-log-level", "debug", "-trace-sample", "1"},
			&buf, func(a net.Addr) { addrCh <- a }, nil)
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-errCh:
		t.Fatalf("server exited before binding: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not come up")
	}
	if code, raw := postJSON(t, base+"/v1/allocate", fmt.Sprintf(`{"taskset": %s}`, serveSampleTaskset)); code != 200 {
		t.Fatalf("allocate: %d %s", code, raw)
	}
	interrupt(t)
	waitExit(t, errCh)

	out := buf.String()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
	}
	for _, want := range []string{`"msg":"listening"`, `"msg":"request"`, `"route":"POST /v1/allocate"`, `"request_id":`, `"msg":"stopped"`} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %s:\n%s", want, out)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slog handler writes from
// the serve goroutine while the test reads after exit.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
