package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hydra/internal/core"
	"hydra/internal/engine"
	"hydra/internal/experiments"
	"hydra/internal/jobs"
	"hydra/internal/obs"
	"hydra/internal/partition"
	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/syspersist"
	"hydra/internal/tasksetio"
)

// DefaultScheme is the allocation scheme used when a request leaves the
// scheme unset — the paper's HYDRA heuristic with its default configuration.
const DefaultScheme = "hydra"

// maxRequestBytes bounds request bodies; tasksets are small, so anything
// beyond this is either a mistake or abuse.
const maxRequestBytes = 8 << 20

// maxSimHorizonMS caps /v1/simulate horizons: simulation cost is linear in
// the horizon, and a serving endpoint must not run unbounded work.
const maxSimHorizonMS = 10_000_000

// defaultSimHorizonMS is the /v1/simulate horizon when the request leaves it
// unset.
const defaultSimHorizonMS = 10_000

// Config tunes a Server.
type Config struct {
	// CacheSize bounds the allocation result cache (entries). Zero or
	// negative selects 1024.
	CacheSize int
	// Workers is the default worker-pool width for batch requests that leave
	// workers unset. Zero selects GOMAXPROCS.
	Workers int
	// JobsDir is the experiment-campaign checkpoint directory. Interrupted
	// campaigns found there are resumed on startup. Empty selects a fresh
	// temporary directory, which Close removes (campaigns then do not survive
	// the process).
	JobsDir string
	// MaxJobs bounds concurrently running experiment campaigns; queued
	// submissions wait for a slot. Zero or negative selects 2.
	MaxJobs int
	// MaxSystems bounds the long-lived online systems hosted under
	// /v1/systems. Zero or negative selects 64.
	MaxSystems int
	// SystemsDir is the persistence root for hosted systems: each lives as a
	// manifest + write-ahead op log + periodic snapshot and is recovered on
	// startup by log replay. Empty selects a fresh temporary directory
	// (systems then do not survive the process), which Close removes.
	SystemsDir string
	// SnapshotEvery is the op count between per-system snapshots (the replay
	// bound on recovery). Zero or negative selects 64.
	SnapshotEvery int
	// SystemWALSync forces every system op-log append to stable storage
	// before the mutation is acknowledged. Off by default — admissions stay
	// in the page cache and survive process crashes, not kernel crashes.
	SystemWALSync bool
	// TraceSample enables head-sampled request tracing: one trace per N
	// requests lands in the /v1/debug/traces ring. Zero (the default)
	// disables tracing entirely; the serving path then performs no trace
	// work at all.
	TraceSample int
	// TraceRing bounds the completed-trace ring. Zero or negative selects
	// obs.DefaultTraceRing.
	TraceRing int
	// Logger receives structured logs (service lifecycle plus the
	// per-request access log, the latter at Debug and 5xx at Error). Nil
	// selects a disabled logger: no levels enabled, no logging cost.
	Logger *slog.Logger
}

// Server implements the allocation service. Create with New; it is an
// http.Handler factory (Handler) plus a Close that cancels in-flight batch
// runs, which the hydra-serve binary ties to SIGINT.
type Server struct {
	cfg     Config
	cache   *Cache
	jobs    *jobs.Manager
	systems *syspersist.Registry
	obs     *serverObs // metrics registry, tracer, structured logger
	mux     *http.ServeMux
	ctx     context.Context
	cancel  context.CancelFunc
}

// New builds a Server with the given configuration. It opens the jobs
// directory and resumes any experiment campaigns interrupted by a previous
// process.
func New(cfg Config) (*Server, error) {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	if cfg.TraceSample < 0 {
		return nil, fmt.Errorf("service: trace sample must be non-negative (0 = off), got %d", cfg.TraceSample)
	}
	sobs := newServerObs(cfg)
	mgr, err := jobs.NewManager(cfg.JobsDir, cfg.MaxJobs)
	if err != nil {
		return nil, fmt.Errorf("service: open jobs dir: %w", err)
	}
	registry, err := syspersist.Open(syspersist.Options{
		Dir:           cfg.SystemsDir,
		MaxSystems:    cfg.MaxSystems,
		SnapshotEvery: cfg.SnapshotEvery,
		Fsync:         cfg.SystemWALSync,
		Observer:      sobs,
	})
	if err != nil {
		mgr.Close()
		return nil, fmt.Errorf("service: open systems dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheSize),
		jobs:    mgr,
		systems: registry,
		obs:     sobs,
		mux:     http.NewServeMux(),
		ctx:     ctx,
		cancel:  cancel,
	}
	s.bindMetrics()
	s.handle("POST /v1/allocate", s.handleAllocate)
	s.handle("POST /v1/allocate/batch", s.handleBatch)
	s.handle("POST /v1/verify", s.handleVerify)
	s.handle("POST /v1/simulate", s.handleSimulate)
	s.handle("POST /v1/experiments", s.handleExperimentSubmit)
	s.handle("GET /v1/experiments", s.handleExperimentList)
	s.handle("GET /v1/experiments/{id}", s.handleExperimentStatus)
	s.handle("GET /v1/experiments/{id}/result", s.handleExperimentResult)
	s.handle("GET /v1/experiments/{id}/events", s.handleExperimentEvents)
	s.handle("DELETE /v1/experiments/{id}", s.handleExperimentCancel)
	s.handle("POST /v1/systems", s.handleSystemCreate)
	s.handle("GET /v1/systems", s.handleSystemList)
	s.handle("GET /v1/systems/{id}", s.handleSystemGet)
	s.handle("DELETE /v1/systems/{id}", s.handleSystemDelete)
	s.handle("POST /v1/systems/{id}/tasks", s.handleSystemAddTask)
	s.handle("DELETE /v1/systems/{id}/tasks/{task}", s.handleSystemRemoveTask)
	s.handle("POST /v1/systems/{id}/reallocate", s.handleSystemReallocate)
	s.handle("GET /v1/systems/{id}/events", s.handleSystemEvents)
	s.handle("GET /v1/schemes", s.handleSchemes)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /v1/version", s.handleVersion)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /v1/debug/traces", s.handleTraces)
	s.handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s, nil
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// JobsDir returns the experiment-campaign checkpoint directory.
func (s *Server) JobsDir() string { return s.jobs.Dir() }

// SystemsDir returns the hosted-system persistence root.
func (s *Server) SystemsDir() string { return s.systems.Dir() }

// Close cancels the server's base context — in-flight batch runs observe the
// cancellation between grid cells and return promptly — then stops the job
// manager, which interrupts running campaigns between cells and waits for
// their checkpoints to settle (they resume on the next start). Hosted
// systems flush a final snapshot so the next start recovers them without
// replay. Temporary jobs and systems directories (empty JobsDir and
// SystemsDir) are removed. Safe to call more than once.
func (s *Server) Close() {
	s.cancel()
	s.jobs.Close()
	s.systems.Close()
}

// requestContext derives a context cancelled when either the client goes
// away or the server is shut down.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.ctx, cancel)
	return ctx, func() { stop(); cancel() }
}

// AllocateRequest is the body of POST /v1/allocate: one taskset document
// plus the scheme (registry name, default "hydra") and the RT partition
// heuristic (default "best-fit"). ResultsVersion selects the RNG/results
// contract the answer is served under (0 = the current default); allocation
// itself is deterministic, but the version partitions the result cache and
// is echoed in the X-Results-Version response header, so clients pinning v1
// artifacts never share cache entries with v2 traffic. The response is a
// tasksetio.ResultJSON with tasks in canonical (name-sorted) order.
type AllocateRequest struct {
	Scheme         string             `json:"scheme,omitempty"`
	Heuristic      string             `json:"heuristic,omitempty"`
	ResultsVersion int                `json:"results_version,omitempty"`
	Taskset        tasksetio.Document `json:"taskset"`
}

// BatchRequest is the body of POST /v1/allocate/batch: many tasksets
// allocated under one scheme, fanned out on the experiment engine. Results
// are returned in request order regardless of worker scheduling.
type BatchRequest struct {
	Scheme         string               `json:"scheme,omitempty"`
	Heuristic      string               `json:"heuristic,omitempty"`
	ResultsVersion int                  `json:"results_version,omitempty"`
	Workers        int                  `json:"workers,omitempty"`
	Tasksets       []tasksetio.Document `json:"tasksets"`
}

// BatchResponse carries one ResultJSON document per requested taskset.
type BatchResponse struct {
	Results []json.RawMessage `json:"results"`
}

// VerifyRequest is the body of POST /v1/verify: a taskset and a previously
// computed result to check. The real-time partition checked is the result's
// rt_partition, else the taskset's, else one computed with the heuristic.
type VerifyRequest struct {
	Heuristic string               `json:"heuristic,omitempty"`
	Taskset   tasksetio.Document   `json:"taskset"`
	Result    tasksetio.ResultJSON `json:"result"`
}

// VerifyResponse reports the linear-bound (core.Verify) and exact-RTA
// (core.VerifyExact) verdicts for the submitted result.
type VerifyResponse struct {
	Valid      bool   `json:"valid"`
	Error      string `json:"error,omitempty"`
	ExactValid bool   `json:"exact_valid"`
	ExactError string `json:"exact_error,omitempty"`
}

// SimulateRequest is the body of POST /v1/simulate: allocate the taskset,
// then run the discrete-event schedule simulator over the horizon.
type SimulateRequest struct {
	Scheme    string             `json:"scheme,omitempty"`
	Heuristic string             `json:"heuristic,omitempty"`
	HorizonMS float64            `json:"horizon_ms,omitempty"`
	Taskset   tasksetio.Document `json:"taskset"`
}

// SimCoreJSON is one simulated core's summary.
type SimCoreJSON struct {
	Core        int     `json:"core"`
	Tasks       int     `json:"tasks"`
	Utilization float64 `json:"utilization"`
	IdleMS      float64 `json:"idle_ms"`
	Misses      int     `json:"misses"`
}

// SimulateResponse summarizes a simulation run (empty Cores when the
// allocation itself was infeasible).
type SimulateResponse struct {
	Scheme              string        `json:"scheme"`
	Schedulable         bool          `json:"schedulable"`
	Reason              string        `json:"reason,omitempty"`
	HorizonMS           float64       `json:"horizon_ms"`
	CumulativeTightness float64       `json:"cumulative_tightness"`
	Cores               []SimCoreJSON `json:"cores,omitempty"`
	TotalMisses         int           `json:"total_misses"`
}

// SchemesResponse lists the registered allocation schemes.
type SchemesResponse struct {
	Schemes []string `json:"schemes"`
}

// LatencyStats summarizes one request-latency series in milliseconds, read
// off the series' /metrics histogram over the server's lifetime. Count and
// mean are exact; the quantiles are histogram_quantile's bucket
// interpolations, and max is the upper edge of the highest occupied bucket.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// latencyStats reads one allocate-outcome histogram, kept in seconds.
func latencyStats(h *obs.Histogram) LatencyStats {
	n := h.Count()
	if n == 0 {
		return LatencyStats{}
	}
	ms := func(q float64) float64 { return 1e3 * h.Quantile(q) }
	return LatencyStats{Count: n, MeanMS: 1e3 * h.Sum() / float64(n),
		P50MS: ms(0.5), P90MS: ms(0.9), P99MS: ms(0.99), MaxMS: ms(1)}
}

// AllocateLatency splits allocate latencies by cache outcome. Coalesced
// requests waited on another request's computation, so their latencies are
// cold-scale — keeping them out of Hit preserves the cold-vs-hit comparison.
type AllocateLatency struct {
	Cold      LatencyStats `json:"cold"`
	Hit       LatencyStats `json:"hit"`
	Coalesced LatencyStats `json:"coalesced"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Cache    CacheStats          `json:"cache"`
	Allocate AllocateLatency     `json:"allocate_latency"`
	Jobs     jobs.Counters       `json:"jobs"`
	Systems  syspersist.Counters `json:"systems"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// respBufPool recycles response-encoding buffers: every JSON response is
// built in a pooled buffer, by writeJSON's encoder or by renderPooled,
// instead of MarshalIndent allocating a fresh (and internally doubled) one
// per request.
var respBufPool = sync.Pool{New: func() any {
	respBufNews.Add(1)
	return new(bytes.Buffer)
}}

// writeJSON answers with v in the service's uniform shape (two-space
// indent, trailing newline — byte-identical to the historical MarshalIndent
// path), encoded through a pooled buffer.
func writeJSON(w http.ResponseWriter, code int, v any) {
	respBufGets.Add(1)
	buf := respBufPool.Get().(*bytes.Buffer)
	defer respBufPool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeEncodeError(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

// renderPooled renders, in writeJSON's shape and without reflection, the
// document render appends to an empty slice, into a pooled buffer the
// caller must respBufPool.Put. render reports false, and renderPooled
// passes on, a document holding a NaN or infinite float, which
// encoding/json refuses. render takes and returns the slice rather than a
// tasksetio.JSONWriter so that the writer stays on its caller's stack.
func renderPooled(render func(b []byte) ([]byte, bool)) (*bytes.Buffer, bool) {
	respBufGets.Add(1)
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	b, ok := render(buf.AvailableBuffer())
	// Writing the rendered bytes back keeps a grown slice for the next use.
	buf.Write(append(b, '\n'))
	return buf, ok
}

// writeRendered answers with renderPooled's document. A document render
// reports not OK gets the 500 writeJSON gives for a value encoding/json
// refuses. The rendering is traced as the encode span and the body write as
// write-body.
func writeRendered(w http.ResponseWriter, tr *obs.Trace, code int, render func(b []byte) ([]byte, bool)) {
	sp := tr.StartSpan("encode")
	buf, ok := renderPooled(render)
	defer respBufPool.Put(buf)
	sp.End()
	if !ok {
		writeEncodeError(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	sp = tr.StartSpan("write-body")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	sp.End()
}

// writeEncodeError answers a response that could not be encoded.
func writeEncodeError(w http.ResponseWriter) {
	http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// bodyBufPool recycles request-body decode buffers for the hot POST
// endpoints (allocate, batch, system task admission): the body is drained
// into a pooled buffer and decoded from memory, instead of the JSON decoder
// growing a fresh internal read buffer per request.
var bodyBufPool = sync.Pool{New: func() any {
	bodyBufNews.Add(1)
	return new(bytes.Buffer)
}}

// decodeRequest strictly parses a JSON request body into v through a pooled
// decode buffer.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	return readRequest(w, r, func(body []byte) error { return decodeStrict(body, v) })
}

// readRequest drains a request body into a pooled buffer and hands the bytes
// to decode, which must not retain them. A read or decode error becomes a
// 400.
func readRequest(w http.ResponseWriter, r *http.Request, decode func(body []byte) error) bool {
	bodyBufGets.Add(1)
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyBufPool.Put(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes)); err != nil {
		writeError(w, http.StatusBadRequest, "parse request: %v", err)
		return false
	}
	if err := decode(buf.Bytes()); err != nil {
		writeError(w, http.StatusBadRequest, "parse request: %v", err)
		return false
	}
	return true
}

// resolveScheme maps a request's scheme name (empty = DefaultScheme) and
// heuristic name to an allocator and heuristic, reporting a bad scheme
// before a bad heuristic. singlecore repacks its real-time tasks with that
// heuristic (core.WithHeuristic).
func resolveScheme(name, heuristic string) (core.Allocator, partition.Heuristic, error) {
	if name == "" {
		name = DefaultScheme
	}
	allocs, err := core.Resolve(name)
	if err != nil {
		return nil, 0, err
	}
	h, err := partition.ParseHeuristic(heuristic)
	if err != nil {
		return nil, 0, err
	}
	return core.WithHeuristic(allocs[0], h), h, nil
}

// resolveResultsVersion maps a request's results_version (0 = absent) to a
// validated stats.RNGVersion; new requests default to the current version.
func resolveResultsVersion(v int) (stats.RNGVersion, error) {
	if v == 0 {
		return stats.DefaultResultsVersion, nil
	}
	return stats.ParseResultsVersion(v)
}

// allocate serves one allocation problem through the canonical-hash cache,
// recording its latency once, in the /metrics histogram of its cache outcome
// (which /v1/stats reads too). tr may be nil (the unsampled case); span
// recording then costs nothing. The returned body is the exact bytes every
// identical request receives.
func (s *Server) allocate(tr *obs.Trace, doc *tasksetio.Document, schemeName, heuristicName string, resultsVersion int) ([]byte, bool, int, error) {
	alloc, h, err := resolveScheme(schemeName, heuristicName)
	if err != nil {
		return nil, false, http.StatusBadRequest, err
	}
	version, err := resolveResultsVersion(resultsVersion)
	if err != nil {
		return nil, false, http.StatusBadRequest, err
	}
	p, err := doc.ToProblem()
	if err != nil {
		return nil, false, http.StatusBadRequest, err
	}
	sp := tr.StartSpan("canonical-key")
	canon := p.Canonical()
	key := Key(canon, alloc.Name(), h, version)
	sp.End()
	sp = tr.StartSpan("cache-do")
	start := time.Now()
	body, outcome, err := s.cache.Do(key, func() ([]byte, error) {
		csp := tr.StartSpan("allocate-compute")
		defer csp.End()
		return computeAllocation(canon, alloc, h)
	})
	d := time.Since(start)
	sp.End()
	switch outcome {
	case OutcomeHit:
		s.obs.allocHit.ObserveDuration(d)
	case OutcomeCoalesced:
		s.obs.allocCoalesced.ObserveDuration(d)
	default:
		s.obs.allocCold.ObserveDuration(d)
	}
	hit := outcome.FromMemory()
	if err != nil {
		return nil, hit, http.StatusInternalServerError, err
	}
	return body, hit, http.StatusOK, nil
}

// computeAllocation runs one allocation on the canonical problem and encodes
// the response body. Infeasibility (no RT partition, or the scheme rejecting
// the taskset) is a cacheable verdict, not an error; errors are reserved for
// internal inconsistencies (an allocation failing its own verification).
func computeAllocation(canon *tasksetio.Problem, alloc core.Allocator, h partition.Heuristic) ([]byte, error) {
	var res *core.Result
	in, err := tasksetio.BuildInput(canon, alloc, h)
	if err != nil {
		res = &core.Result{Schedulable: false, Scheme: alloc.Name(), Reason: err.Error()}
	} else {
		res = alloc.Allocate(in)
		if res.Schedulable {
			if verr := core.Verify(in, res); verr != nil {
				return nil, fmt.Errorf("allocation failed verification: %w", verr)
			}
		}
	}
	buf, ok := renderPooled(func(b []byte) ([]byte, bool) {
		jw := tasksetio.JSONWriter{Buf: b}
		jw.Result(tasksetio.ResultToJSON(canon, res))
		return jw.Buf, jw.OK()
	})
	defer respBufPool.Put(buf)
	if !ok {
		return nil, errors.New("encode response: the result holds a NaN or infinite float")
	}
	// The body escapes into the cache, so copy it out of the pooled buffer.
	return append([]byte(nil), buf.Bytes()...), nil
}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	tr := traceFrom(r.Context())
	sp := tr.StartSpan("decode")
	var req AllocateRequest
	ok := readRequest(w, r, func(body []byte) (err error) {
		req, err = decodeAllocate(body)
		return err
	})
	sp.End()
	if !ok {
		return
	}
	body, hit, status, err := s.allocate(tr, &req.Taskset, req.Scheme, req.Heuristic, req.ResultsVersion)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	version, _ := resolveResultsVersion(req.ResultsVersion) // validated by allocate
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Results-Version", strconv.Itoa(int(version)))
	if hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	sp = tr.StartSpan("write-body")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	sp.End()
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	// Resolve shared parameters once so a bad scheme fails the whole batch
	// up front instead of per cell.
	if _, _, err := resolveScheme(req.Scheme, req.Heuristic); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := resolveResultsVersion(req.ResultsVersion); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	results, err := engine.Run(ctx, req.Tasksets,
		func(ctx context.Context, idx int, _ *rand.Rand, doc tasksetio.Document) (json.RawMessage, error) {
			body, _, _, err := s.allocate(nil, &doc, req.Scheme, req.Heuristic, req.ResultsVersion)
			if err != nil {
				return nil, fmt.Errorf("taskset %d: %w", idx, err)
			}
			return body, nil
		},
		engine.Options{Workers: workers})
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, "batch cancelled: %v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	h, err := partition.ParseHeuristic(req.Heuristic)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := req.Taskset.ToProblem()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := req.Result.ToResult(p)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The partition core.Verify analyzes (see core.EffectiveInput): the
	// result's, else the taskset's, else the heuristic's. A given one must
	// pass exact RTA, or the result is invalid on both counts.
	if res.RTPartition != nil { // ToResult checked it covers p.RT
		p.RTPartition = res.RTPartition
	}
	part, err := p.Partition(h)
	switch {
	case err != nil && p.RTPartition == nil:
		writeError(w, http.StatusBadRequest, "cannot determine real-time partition (supply taskset.rt_partition or result.rt_partition): %v", err)
		return
	case err != nil:
		writeJSON(w, http.StatusOK, VerifyResponse{Error: err.Error(), ExactError: err.Error()})
		return
	}
	in, err := core.NewInput(p.M, p.RT, part, p.Sec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var resp VerifyResponse
	if err := core.Verify(in, res); err != nil {
		resp.Error = err.Error()
	} else {
		resp.Valid = true
	}
	if err := core.VerifyExact(in, res); err != nil {
		resp.ExactError = err.Error()
	} else {
		resp.ExactValid = true
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	horizon := req.HorizonMS
	if horizon == 0 {
		horizon = defaultSimHorizonMS
	}
	if horizon < 0 || horizon > maxSimHorizonMS {
		writeError(w, http.StatusBadRequest, "horizon_ms must be in (0, %d], got %g", maxSimHorizonMS, horizon)
		return
	}
	alloc, h, err := resolveScheme(req.Scheme, req.Heuristic)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := req.Taskset.ToProblem()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	canon := p.Canonical()
	resp := SimulateResponse{Scheme: alloc.Name(), HorizonMS: horizon}
	in, err := tasksetio.BuildInput(canon, alloc, h)
	if err != nil {
		resp.Reason = err.Error()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	res := alloc.Allocate(in)
	resp.Scheme = res.Scheme
	if !res.Schedulable {
		resp.Reason = res.Reason
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Schedulable = true
	resp.CumulativeTightness = res.Cumulative
	campaign, err := experiments.Simulate(in, res, horizon, false)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, sim.ErrTooManyJobs) {
			code = http.StatusBadRequest
		}
		writeError(w, code, "%v", err)
		return
	}
	for c, tr := range campaign.Trace.Cores {
		resp.Cores = append(resp.Cores, SimCoreJSON{
			Core:        c,
			Tasks:       len(tr.Specs),
			Utilization: tr.Utilization(),
			IdleMS:      tr.IdleTime,
			Misses:      tr.Misses,
		})
	}
	resp.TotalMisses = campaign.Trace.TotalMisses()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SchemesResponse{Schemes: core.Names()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Cache: s.cache.Stats(),
		Allocate: AllocateLatency{
			Cold:      latencyStats(s.obs.allocCold),
			Hit:       latencyStats(s.obs.allocHit),
			Coalesced: latencyStats(s.obs.allocCoalesced),
		},
		Jobs:    s.jobs.Counters(),
		Systems: s.systems.Counters(),
	})
}
