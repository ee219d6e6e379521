// Command hydra-serve runs the allocation service: the HYDRA allocator
// registry, batch engine, verifiers and schedule simulator behind an HTTP
// JSON API with a canonical-hash result cache.
//
// Endpoints:
//
//	POST   /v1/allocate                 allocate one taskset (cached, singleflight)
//	POST   /v1/allocate/batch           allocate many tasksets on the worker pool
//	POST   /v1/verify                   check a result against the linear and exact analyses
//	POST   /v1/simulate                 allocate and run the discrete-event simulator
//	POST   /v1/systems                  create a long-lived online system (cold allocation)
//	GET    /v1/systems                  list hosted systems
//	GET    /v1/systems/{id}             one system's committed state
//	DELETE /v1/systems/{id}             delete a system
//	POST   /v1/systems/{id}/tasks       try-admit a task incrementally (409 + verdicts on reject)
//	DELETE /v1/systems/{id}/tasks/{t}   retire a task by name
//	POST   /v1/systems/{id}/reallocate  full re-run of the system's scheme (escape hatch)
//	GET    /v1/systems/{id}/events      SSE decision log (?since=V, ?follow=1)
//	POST   /v1/experiments              start an experiment campaign job (fig1/fig2/...)
//	GET    /v1/experiments              list campaign jobs and runnable experiments
//	GET    /v1/experiments/{id}         job status: state, per-cell progress, ETA
//	GET    /v1/experiments/{id}/result  the figure's row/point JSON once done
//	GET    /v1/experiments/{id}/events  SSE progress stream
//	DELETE /v1/experiments/{id}         cancel a campaign
//	GET    /v1/schemes                  list registered allocation schemes
//	GET    /v1/stats                    cache, latency and job counters
//	GET    /v1/version                  build/version report (module, VCS, toolchain, results contract)
//	GET    /metrics                     Prometheus text exposition
//	GET    /v1/debug/traces             sampled request traces (?min_ms=N)
//	GET    /healthz                     liveness probe
//
// With -debug-addr a second listener serves the operational surface away
// from the API port: /metrics, /v1/debug/traces and net/http/pprof under
// /debug/pprof/ (pprof is served only there). Request tracing is off by
// default; -trace-sample N records one trace per N requests into a bounded
// in-memory ring. Logs are structured (log/slog, -log-format text|json,
// -log-level debug enables the per-request access log).
//
// The server shuts down gracefully on SIGINT/SIGTERM: new connections stop,
// in-flight batch runs are cancelled via context between grid cells, and
// running campaigns checkpoint and stop between cells. A campaign
// interrupted this way resumes from its -jobs-dir checkpoint on the next
// start and produces a result byte-identical to an uninterrupted run.
//
// Hosted systems are durable when -systems-dir is set: every mutation is
// written to a per-system write-ahead op log before it is acknowledged, a
// snapshot is taken every -snapshot-every ops, and the next start recovers
// every system by snapshot restore + log replay — bit-identical to a process
// that never stopped, including event-log versions.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hydra/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "hydra-serve:", err)
		os.Exit(1)
	}
}

// parseLogLevel maps the -log-level flag onto slog levels.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("-log-level must be debug, info, warn or error, got %q", s)
}

// newLogger builds the process logger from the -log-format/-log-level flags.
func newLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("-log-format must be text or json, got %q", format)
}

// run parses flags and serves until SIGINT/SIGTERM. ready and debugReady,
// when non-nil, are called with the bound addresses once the respective
// listener is up (the test seam for -addr/-debug-addr :0).
func run(args []string, logw io.Writer, ready, debugReady func(net.Addr)) error {
	fs := flag.NewFlagSet("hydra-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheSize := fs.Int("cache", 1024, "allocation result cache capacity (entries)")
	workers := fs.Int("workers", 0, "default batch worker-pool width (0 = GOMAXPROCS)")
	jobsDir := fs.String("jobs-dir", "", "experiment-campaign checkpoint directory; interrupted campaigns found there resume on startup (empty = fresh temp dir, campaigns do not survive the process)")
	maxJobs := fs.Int("max-jobs", 2, "concurrently running experiment campaigns; further submissions queue")
	maxSystems := fs.Int("max-systems", 64, "long-lived online systems hosted under /v1/systems")
	systemsDir := fs.String("systems-dir", "", "hosted-system persistence root: every system lives as a manifest + write-ahead op log + periodic snapshot, and is recovered by log replay on startup (empty = fresh temp dir, systems do not survive the process)")
	snapshotEvery := fs.Int("snapshot-every", 64, "ops between per-system snapshots — the recovery replay bound (<= 0 selects the default 64)")
	walFsync := fs.Bool("wal-fsync", false, "fsync every system op-log append before acknowledging the mutation (survives kernel crashes at a per-admit latency cost; off = page-cache durability, survives process crashes)")
	debugAddr := fs.String("debug-addr", "", "separate listener for the operational surface: /metrics, /v1/debug/traces and net/http/pprof under /debug/pprof/ (empty = no debug listener; pprof is only ever served here)")
	traceSample := fs.Int("trace-sample", 0, "record one request trace per N requests into the /v1/debug/traces ring (0 = tracing off, no per-request trace work at all)")
	traceRing := fs.Int("trace-ring", 0, "completed request traces retained for /v1/debug/traces (0 = default 256)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error (debug enables the per-request access log)")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "grace period for draining connections on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceSample < 0 {
		return fmt.Errorf("-trace-sample must be >= 0 (0 = off), got %d", *traceSample)
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := newLogger(logw, *logFormat, level)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := service.Config{
		CacheSize: *cacheSize, Workers: *workers,
		JobsDir: *jobsDir, MaxJobs: *maxJobs, MaxSystems: *maxSystems,
		SystemsDir: *systemsDir, SnapshotEvery: *snapshotEvery, SystemWALSync: *walFsync,
		TraceSample: *traceSample, TraceRing: *traceRing, Logger: logger,
	}
	return serve(ctx, *addr, *debugAddr, cfg, *shutdownTimeout, ready, debugReady)
}

// serve runs the service on addr (and the operational surface on debugAddr,
// when set) until ctx is cancelled, then shuts down gracefully: the service
// context is cancelled first (in-flight batch runs observe it between grid
// cells and return), then the HTTP servers drain.
func serve(ctx context.Context, addr, debugAddr string, cfg service.Config, grace time.Duration, ready, debugReady func(net.Addr)) error {
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	log := svc.Log()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	log.Info("listening",
		slog.String("addr", ln.Addr().String()),
		slog.String("jobs_dir", svc.JobsDir()),
		slog.String("systems_dir", svc.SystemsDir()),
	)
	errc := make(chan error, 1)
	var debugSrv *http.Server
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{Handler: svc.DebugHandler()}
		log.Info("debug listening", slog.String("addr", dln.Addr().String()))
		if debugReady != nil {
			debugReady(dln.Addr())
		}
		// Debug-listener failures are logged, not fatal: losing pprof must
		// not take the API down.
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Error("debug listener failed", slog.String("error", err.Error()))
			}
		}()
	}
	if ready != nil {
		ready(ln.Addr())
	}
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down")
	svc.Close() // cancel in-flight batch work before draining connections
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	log.Info("stopped")
	return nil
}
