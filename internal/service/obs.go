package service

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/jobs"
	"hydra/internal/obs"
	"hydra/internal/rts"
	"hydra/internal/syspersist"
)

// headerRequestID is the request-correlation header, in canonical MIME form
// so header map lookups never re-canonicalize (and never allocate).
const headerRequestID = "X-Request-Id"

// serverObs bundles the server's observability surface: the metric registry
// behind /metrics, the head-sampled request tracer behind /v1/debug/traces,
// and the structured logger. Everything here obeys one contract: with
// tracing off and the log level above Debug, the cache-hit serving path
// costs zero additional allocations (pinned by TestMiddlewareZeroAllocs and
// the cache-hit benchmark gate).
type serverObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	log    *slog.Logger

	inflight *obs.Gauge

	// Allocate-outcome latency histograms, behind both /metrics and the
	// allocate_latency of /v1/stats.
	allocCold      *obs.Histogram
	allocHit       *obs.Histogram
	allocCoalesced *obs.Histogram

	// Persistence latency histograms, fed by the syspersist Observer hook.
	walAppend *obs.Histogram
	walFsync  *obs.Histogram
	snapWrite *obs.Histogram

	// scrape holds the per-scrape snapshots the registry's scrape-time
	// closures read; handleMetrics fills it under mu before rendering, so
	// every series in one exposition comes from one consistent cut.
	scrape struct {
		mu      sync.Mutex
		cache   CacheStats
		jobs    jobs.Counters
		systems syspersist.Counters
		rta     rts.AnalysisMetricsSnapshot
	}
}

// Pool efficiency counters: gets at the acquisition sites, news inside the
// pool New closures. news/gets is the pool miss rate the capacity planning
// docs watch.
var (
	respBufGets atomic.Uint64
	respBufNews atomic.Uint64
	bodyBufGets atomic.Uint64
	bodyBufNews atomic.Uint64
	keyBufGets  atomic.Uint64
	keyBufNews  atomic.Uint64
)

// discardHandler is a slog.Handler that is disabled at every level — the
// default when no Config.Logger is supplied. Unlike a leveled handler over
// io.Discard, Enabled returning false keeps the access-log path from
// assembling attributes at all. (slog.DiscardHandler ships in Go 1.24; this
// module still supports 1.23.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// rtaIterBounds converts the rts iteration bucket bounds once for the
// exposition.
func rtaIterBounds() []float64 {
	out := make([]float64, len(rts.IterationBucketBounds))
	for i, b := range rts.IterationBucketBounds {
		out[i] = float64(b)
	}
	return out
}

// newServerObs builds the observability spine. Metric families that read
// server state at scrape time are registered later by bindMetrics, once the
// cache, jobs manager and registry exist.
func newServerObs(cfg Config) *serverObs {
	o := &serverObs{
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(cfg.TraceRing),
	}
	if cfg.Logger != nil {
		o.log = cfg.Logger
	} else {
		o.log = slog.New(discardHandler{})
	}
	o.tracer.SetSample(cfg.TraceSample)
	o.inflight = o.reg.Gauge("hydra_http_in_flight", "", "Requests currently being served.")
	lat := obs.DefLatencyBuckets
	o.allocCold = o.reg.Histogram("hydra_allocate_seconds", `outcome="cold"`, "Allocate latency by cache outcome.", lat)
	o.allocHit = o.reg.Histogram("hydra_allocate_seconds", `outcome="hit"`, "Allocate latency by cache outcome.", lat)
	o.allocCoalesced = o.reg.Histogram("hydra_allocate_seconds", `outcome="coalesced"`, "Allocate latency by cache outcome.", lat)
	o.walAppend = o.reg.Histogram("hydra_wal_append_seconds", "", "System op-log line write latency (excluding fsync).", lat)
	o.walFsync = o.reg.Histogram("hydra_wal_fsync_seconds", "", "System op-log fsync latency.", lat)
	o.snapWrite = o.reg.Histogram("hydra_snapshot_write_seconds", "", "System snapshot file write latency.", lat)
	sampled := o.tracer
	o.reg.CounterFunc("hydra_traces_sampled_total", "", "Request traces started by the head sampler.",
		func() uint64 { s, _ := sampled.Stats(); return s })
	o.reg.CounterFunc("hydra_traces_dropped_total", "", "Completed traces evicted from the debug ring.",
		func() uint64 { _, d := sampled.Stats(); return d })
	obs.RegisterRuntimeMetrics(o.reg)
	return o
}

// ObserveWALAppend implements syspersist.Observer.
func (o *serverObs) ObserveWALAppend(d time.Duration) { o.walAppend.ObserveDuration(d) }

// ObserveWALFsync implements syspersist.Observer.
func (o *serverObs) ObserveWALFsync(d time.Duration) { o.walFsync.ObserveDuration(d) }

// ObserveSnapshot implements syspersist.Observer.
func (o *serverObs) ObserveSnapshot(d time.Duration) { o.snapWrite.ObserveDuration(d) }

// bindMetrics registers the metric families that read live server state at
// scrape time: cache counters, jobs and systems counters, RTA totals, and
// pool efficiency. Called once from New after the subsystems exist.
func (s *Server) bindMetrics() {
	o := s.obs
	o.reg.CounterFunc("hydra_cache_hits_total", "", "Result-cache hits.",
		func() uint64 { return o.scrape.cache.Hits })
	o.reg.CounterFunc("hydra_cache_misses_total", "", "Result-cache misses (computations run).",
		func() uint64 { return o.scrape.cache.Misses })
	o.reg.CounterFunc("hydra_cache_coalesced_total", "", "Requests coalesced onto an identical in-flight computation.",
		func() uint64 { return o.scrape.cache.Coalesced })
	o.reg.CounterFunc("hydra_cache_evictions_total", "", "LRU evictions.",
		func() uint64 { return o.scrape.cache.Evictions })
	o.reg.GaugeFunc("hydra_cache_entries", "", "Cached result bodies.",
		func() float64 { return float64(o.scrape.cache.Entries) })
	o.reg.GaugeFunc("hydra_cache_capacity", "", "Result-cache capacity.",
		func() float64 { return float64(o.scrape.cache.Capacity) })

	o.reg.ConstHistogram("hydra_rta_iterations", "", "Iterations per RTA fixed-point computation.", rtaIterBounds(),
		func() obs.HistogramSnapshot {
			r := o.scrape.rta
			return obs.HistogramSnapshot{Buckets: r.IterBuckets[:], Sum: float64(r.Iterations), Count: r.FixedPoints}
		})
	o.reg.CounterFunc("hydra_rta_fixed_points_total", "", "RTA fixed-point computations.",
		func() uint64 { return o.scrape.rta.FixedPoints })
	o.reg.CounterFunc("hydra_rta_warm_starts_total", "", "RTA computations warm-started from a memoized response time.",
		func() uint64 { return o.scrape.rta.WarmStarts })
	o.reg.CounterFunc("hydra_rta_trial_reuses_total", "", "Admission commits that reused the trial analysis.",
		func() uint64 { return o.scrape.rta.TrialReuses })
	o.reg.CounterFunc("hydra_rta_bound_admits_total", "", "Admission trials the hyperbolic bound admitted without a fixed point.",
		func() uint64 { return o.scrape.rta.BoundAdmits })

	o.reg.CounterFunc("hydra_jobs_submitted_total", "", "Experiment campaigns submitted.",
		func() uint64 { return o.scrape.jobs.Submitted })
	o.reg.CounterFunc("hydra_jobs_resumed_total", "", "Campaigns resumed from checkpoints on startup.",
		func() uint64 { return o.scrape.jobs.Resumed })
	o.reg.GaugeFunc("hydra_jobs_queued", "", "Campaigns waiting for a run slot.",
		func() float64 { return float64(o.scrape.jobs.Queued) })
	o.reg.GaugeFunc("hydra_jobs_running", "", "Campaigns currently running.",
		func() float64 { return float64(o.scrape.jobs.Running) })
	o.reg.GaugeFunc("hydra_jobs_done", "", "Campaigns completed.",
		func() float64 { return float64(o.scrape.jobs.Done) })
	o.reg.GaugeFunc("hydra_jobs_failed", "", "Campaigns failed.",
		func() float64 { return float64(o.scrape.jobs.Failed) })
	o.reg.GaugeFunc("hydra_jobs_cancelled", "", "Campaigns cancelled.",
		func() float64 { return float64(o.scrape.jobs.Cancelled) })
	o.reg.CounterFunc("hydra_jobs_cells_completed_total", "", "Experiment grid cells completed.",
		func() uint64 { return o.scrape.jobs.CellsCompleted })

	o.reg.GaugeFunc("hydra_systems_active", "", "Live hosted systems.",
		func() float64 { return float64(o.scrape.systems.Active) })
	o.reg.CounterFunc("hydra_systems_created_total", "", "Systems created.",
		func() uint64 { return o.scrape.systems.Created })
	o.reg.CounterFunc("hydra_systems_deleted_total", "", "Systems deleted.",
		func() uint64 { return o.scrape.systems.Deleted })
	o.reg.CounterFunc("hydra_systems_admitted_total", "", "Task admissions across all systems.",
		func() uint64 { return o.scrape.systems.Admitted })
	o.reg.CounterFunc("hydra_systems_rejected_total", "", "Task rejections across all systems.",
		func() uint64 { return o.scrape.systems.Rejected })
	o.reg.CounterFunc("hydra_systems_removed_total", "", "Task removals across all systems.",
		func() uint64 { return o.scrape.systems.Removed })
	o.reg.CounterFunc("hydra_systems_reallocations_total", "", "System-wide reallocations.",
		func() uint64 { return o.scrape.systems.Reallocations })
	o.reg.CounterFunc("hydra_systems_events_total", "", "Decision-log events across all systems.",
		func() uint64 { return o.scrape.systems.Events })

	o.reg.CounterFunc("hydra_pool_gets_total", `pool="resp"`, "Response-buffer pool acquisitions.",
		func() uint64 { return respBufGets.Load() })
	o.reg.CounterFunc("hydra_pool_news_total", `pool="resp"`, "Response-buffer pool misses (fresh allocations).",
		func() uint64 { return respBufNews.Load() })
	o.reg.CounterFunc("hydra_pool_gets_total", `pool="body"`, "Request-body buffer pool acquisitions.",
		func() uint64 { return bodyBufGets.Load() })
	o.reg.CounterFunc("hydra_pool_news_total", `pool="body"`, "Request-body buffer pool misses (fresh allocations).",
		func() uint64 { return bodyBufNews.Load() })
	o.reg.CounterFunc("hydra_pool_gets_total", `pool="key"`, "Cache-key scratch pool acquisitions.",
		func() uint64 { return keyBufGets.Load() })
	o.reg.CounterFunc("hydra_pool_news_total", `pool="key"`, "Cache-key scratch pool misses (fresh allocations).",
		func() uint64 { return keyBufNews.Load() })
}

// routeMetrics is one route's pre-registered metric handles; created at
// registration time so the serving path performs no registry lookups.
type routeMetrics struct {
	route   string
	byClass [6]*obs.Counter // index = status/100 (0 = out-of-range)
	latency *obs.Histogram
}

func (s *Server) newRouteMetrics(route string) *routeMetrics {
	m := &routeMetrics{route: route}
	label := `route="` + route + `"`
	for class := 1; class <= 5; class++ {
		m.byClass[class] = s.obs.reg.Counter("hydra_http_requests_total",
			label+`,code="`+strconv.Itoa(class)+`xx"`, "Requests served, by route and status class.")
	}
	m.byClass[0] = m.byClass[5] // degenerate status codes count as server errors
	m.latency = s.obs.reg.Histogram("hydra_http_request_seconds", label,
		"Request latency by route.", obs.DefLatencyBuckets)
	return m
}

// observe folds one served request into the route's counters.
func (m *routeMetrics) observe(status int, d time.Duration) {
	class := status / 100
	if class < 1 || class > 5 {
		class = 0
	}
	m.byClass[class].Inc()
	m.latency.ObserveDuration(d)
}

// statusWriter captures the response status (and implements http.Flusher so
// the SSE handlers' Flusher assertion still holds through the wrapper).
// Instances are pooled: the middleware must not allocate per request.
type statusWriter struct {
	http.ResponseWriter
	status int
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController passthrough.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// traceKey carries the request's *obs.Trace through the context; only
// sampled requests pay the context allocation.
type traceKey struct{}

// traceFrom returns the request's trace, or nil (every span method on a nil
// trace is a no-op).
func traceFrom(ctx context.Context) *obs.Trace {
	tr, _ := ctx.Value(traceKey{}).(*obs.Trace)
	return tr
}

// handle registers a route with the instrumentation middleware: request and
// latency metrics, head-sampled tracing, and the access log. The fast path —
// tracing off, access log disabled — adds no allocations over the bare
// handler.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	m := s.newRouteMetrics(pattern)
	o := s.obs
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		o.inflight.Add(1)
		sw := statusWriterPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, 0

		var reqID string
		if o.tracer.Sample() > 0 {
			reqID = r.Header.Get(headerRequestID)
		}
		tr := o.tracer.Start(pattern, reqID)
		if tr != nil {
			w.Header().Set(headerRequestID, tr.ID())
			r = r.WithContext(context.WithValue(r.Context(), traceKey{}, tr))
		}

		h(sw, r)

		d := time.Since(start)
		tr.Finish()
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing; net/http will send 200
		}
		m.observe(status, d)
		o.inflight.Add(-1)

		lvl := slog.LevelDebug
		if status >= 500 {
			lvl = slog.LevelError
		}
		if o.log.Enabled(r.Context(), lvl) {
			o.log.LogAttrs(r.Context(), lvl, "request",
				slog.String("route", pattern),
				slog.String("request_id", tr.ID()),
				slog.Int("status", status),
				slog.Duration("duration", d),
				slog.String("cache", w.Header().Get("X-Cache")),
			)
		}
		sw.ResponseWriter = nil
		statusWriterPool.Put(sw)
	})
}

// handleMetrics serves the Prometheus text exposition. Scrape-time state is
// snapshotted under the scrape lock first, so the rendered series are one
// consistent cut (and concurrent scrapes serialize instead of racing the
// snapshot slots).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	o := s.obs
	o.scrape.mu.Lock()
	defer o.scrape.mu.Unlock()
	o.scrape.cache = s.cache.Stats()
	o.scrape.jobs = s.jobs.Counters()
	o.scrape.systems = s.systems.Counters()
	o.scrape.rta = rts.ReadAnalysisMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = o.reg.WritePrometheus(w)
}

// TracesResponse is the body of GET /v1/debug/traces.
type TracesResponse struct {
	Sample  int             `json:"sample"`  // current 1-in-N sampling rate (0 = off)
	Sampled uint64          `json:"sampled"` // traces started since boot
	Dropped uint64          `json:"dropped"` // completed traces evicted unread
	Traces  []obs.TraceJSON `json:"traces"`  // newest first
}

// handleTraces serves the completed-trace ring, newest first. ?min_ms=N
// keeps only traces at least that long.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	var minDur time.Duration
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "min_ms must be a non-negative number, got %q", v)
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	sampled, dropped := s.obs.tracer.Stats()
	writeJSON(w, http.StatusOK, TracesResponse{
		Sample:  s.obs.tracer.Sample(),
		Sampled: sampled,
		Dropped: dropped,
		Traces:  s.obs.tracer.Snapshot(minDur),
	})
}

// DebugHandler returns the handler for the separate debug listener
// (-debug-addr): pprof, the metric exposition and the trace ring. pprof is
// only served here — profiling endpoints do not belong on the API port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	return mux
}

// Log returns the server's structured logger (a disabled logger when the
// configuration supplied none).
func (s *Server) Log() *slog.Logger { return s.obs.log }
