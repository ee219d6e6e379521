// Command hydra-loadgen drives a hydra-serve instance with a configurable
// request mix and reports achieved throughput and latency quantiles. It is
// the measurement tool behind ROADMAP item "prove the concurrent-load story"
// and the CI load smoke.
//
// Two operating modes:
//
//   - open loop (-qps > 0): arrivals are scheduled on the wall clock at the
//     target rate regardless of completions, for a fixed -duration. A server
//     that cannot keep up shows a growing backlog and rising quantiles
//     instead of a silently throttled request rate.
//   - closed loop (-qps 0, the default): every worker fires back to back,
//     measuring saturation throughput.
//
// The target is either a live server (-url) or a throwaway in-process server
// (-self, listening on 127.0.0.1:0) so CI and A/B cache experiments need no
// separate process.
//
// Output is a JSON report on stdout, or benchjson-compatible benchmark lines
// when -bench NAME is given (appendable to a bench.txt consumed by
// cmd/benchjson).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"hydra/internal/loadgen"
	"hydra/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hydra-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hydra-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "", "target server base URL, e.g. http://127.0.0.1:8080 (mutually exclusive with -self)")
	self := fs.Bool("self", false, "serve an in-process server on 127.0.0.1:0 and load-test it (no external process needed)")
	selfCache := fs.Int("self-cache", 1024, "result-cache capacity of the -self server")
	duration := fs.Duration("duration", 5*time.Second, "measured run length")
	qps := fs.Float64("qps", 0, "open-loop target arrival rate; 0 = closed loop (saturation throughput)")
	workers := fs.Int("workers", 8, "concurrent request senders")
	mixFlag := fs.String("mix", "hit=1", "request-class mix as class=weight pairs over hit, cold, admit and churn, e.g. hit=0.9,cold=0.05,admit=0.04,churn=0.01")
	seed := fs.Int64("seed", 1, "class-selection RNG seed")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	bench := fs.String("bench", "", "emit benchjson-compatible benchmark lines named Benchmark<NAME>/<class> instead of the JSON report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*url == "") == !*self {
		return fmt.Errorf("exactly one of -url or -self is required")
	}
	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		return err
	}

	ctx := context.Background()
	base := *url
	if *self {
		addr, shutdown, err := startSelf(*selfCache)
		if err != nil {
			return err
		}
		defer shutdown()
		base = "http://" + addr
		fmt.Fprintf(stderr, "hydra-loadgen: in-process server on %s (cache %d)\n", base, *selfCache)
	}

	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:   base,
		Duration:  *duration,
		TargetQPS: *qps,
		Workers:   *workers,
		Mix:       mix,
		Seed:      *seed,
		Timeout:   *timeout,
	})
	if err != nil {
		return err
	}
	if *bench != "" {
		_, err = io.WriteString(stdout, rep.BenchLines(*bench))
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// startSelf boots an in-process hydra service on a loopback port and returns
// its address plus a shutdown func.
func startSelf(cacheSize int) (string, func(), error) {
	svc, err := service.New(service.Config{CacheSize: cacheSize})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return "", nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		svc.Close()
	}
	return ln.Addr().String(), shutdown, nil
}
