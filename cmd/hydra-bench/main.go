// Command hydra-bench is the repository's benchmark: four workloads run
// against hydra-serve and hydra-experiments built from the tree, each with
// its outputs checked, reporting the end-to-end metrics (untraced pass) or
// the per-layer metrics (traced pass, -trace 1). README.md describes the
// workloads, the metrics and how the bounds in BENCHMARK.json were set.
//
// Run it through run.sh, which builds it and keeps every file it writes
// under .bench_build/ in the repository:
//
//	bash cmd/hydra-bench/run.sh -seed 1                       # all workloads
//	bash cmd/hydra-bench/run.sh -workload allocate-cold -trace 1
//	bash cmd/hydra-bench/run.sh -workload dse-sweep -repeat 10 -out report.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics with their units.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"hydra/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one benchmark workload.
type workload struct {
	name, why string
	run       func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{"dse-sweep", "the paper's Fig. 2 sweep: taskgen, partition, RTA and both allocators, no HTTP, cache or log", runSweep},
	{"allocate-cold", "every request a new problem: the cache misses and the full allocate path runs", runCold},
	{"allocate-hot", "Zipf requests over primed problems: served from the cache, allocation is bypassed", runHot},
	{"systems-durable", "online admits, removals and reads on durable systems, then SIGKILL recovery", runSystems},
}

// outcome is what one workload run measured and checked.
type outcome struct {
	setup    []float64 // seconds per set-up repetition
	ops      int       // ops completed in the measured phase
	failed   int       // ops that failed or were answered unexpectedly
	win      window
	latMS    []float64 // latency samples
	latWhat  string    // what one latency sample is
	rssKB    int64     // peak RSS of the program under test
	childCPU time.Duration
	gcs      int64 // GC cycles of the program under test (traced pass)
	checks   []check
	digest   string             // digest of the run's seed-determined outputs ("" when too few ops ran)
	layers   map[string]float64 // per-layer metrics gathered by the workload
	spans    *traceSummary      // server spans (traced serving runs)
	traces   []obs.TraceJSON    // the spans as the server reported them
	extra    map[string]float64 // printed diagnostics
}

// result is one run as reported.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Extra     map[string]float64 `json:"diagnostics"`
	Samples   map[string]int     `json:"samples"`
	LatencyOf string             `json:"latency_samples_of"`
	Digest    string             `json:"digest"`
	Golden    string             `json:"golden"`
	Checks    []string           `json:"checks"`
	Notes     []string           `json:"notes,omitempty"`

	traces []obs.TraceJSON // server spans of a traced serving run, for -trace-out
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden maps seed -> workload -> digest of that run's seed-determined
// outputs at fullScale.
func golden() map[string]map[string]string {
	g := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("testdata/golden.json: %v", err)) // embedded at build time
	}
	return g
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hydra-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "workload to run: dse-sweep, allocate-cold, allocate-hot or systems-durable (empty = all four)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "length of each workload's measured phase, in seconds")
	trace := fs.Int("trace", 0, "0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload on seeds seed, seed+1, ...; above 1 prints medians, quartiles and spreads against BENCHMARK.json's bounds")
	out := fs.String("out", "", "also write a JSON report to this file")
	traceOut := fs.String("trace-out", "", "traced pass: write the server spans each serving run collected to this file (default .bench_build/spans.json)")
	root := fs.String("root", ".", "repository root holding cmd/hydra-serve and cmd/hydra-experiments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "hydra-bench: -seconds and -repeat must be >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "hydra-bench: unknown workload %q\n", *only)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rootDir, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "hydra-bench:", err)
		return 1
	}
	scratch := filepath.Join(rootDir, ".bench_build")
	bins := filepath.Join(scratch, "bin")
	buildTime, err := buildBinaries(ctx, rootDir, bins, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hydra-bench:", err)
		return 1
	}
	st := newStamp(buildTime)
	fmt.Fprintln(stdout, st.String())

	var results []result
	for _, w := range selected {
		for i := 0; i < *repeat; i++ {
			e := &env{bins: bins, seed: *seed + int64(i), window: time.Duration(*seconds) * time.Second,
				trace: *trace == 1, sc: fullScale, log: stderr}
			r, err := runOne(ctx, scratch, w, e)
			if err != nil {
				fmt.Fprintf(stderr, "hydra-bench: %s seed %d: %v\n", w.name, e.seed, err)
				return 1
			}
			printResult(stdout, r, e)
			results = append(results, r)
		}
	}
	var summary []summaryRow
	if *repeat > 1 {
		summary = summarize(results, readBounds(rootDir))
		printSummary(stdout, summary)
	}
	if *out != "" {
		rep := struct {
			Stamp   stamp        `json:"stamp"`
			Runs    []result     `json:"runs"`
			Summary []summaryRow `json:"summary,omitempty"`
		}{st, results, summary}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "hydra-bench: write report:", err)
			return 1
		}
	}
	if *trace == 1 {
		if *traceOut == "" {
			*traceOut = filepath.Join(scratch, "spans.json")
		}
		type spanFile struct {
			Workload string          `json:"workload"`
			Seed     int64           `json:"seed"`
			Traces   []obs.TraceJSON `json:"traces"`
		}
		var files []spanFile
		for _, r := range results {
			if r.traces != nil {
				files = append(files, spanFile{r.Workload, r.Seed, r.traces})
			}
		}
		b, err := json.Marshal(files)
		if err == nil {
			err = os.WriteFile(*traceOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "hydra-bench: write spans:", err)
			return 1
		}
		fmt.Fprintln(stdout, "spans written to", *traceOut)
	}
	line, ok := resultLine(results, *trace == 1, *repeat > 1 || len(selected) > 1)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// runOne runs one workload in a fresh directory under scratch, removed
// afterwards, and turns what it measured into metrics.
func runOne(ctx context.Context, scratch string, w workload, e *env) (result, error) {
	work, err := os.MkdirTemp(scratch, "run-"+w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	e.work = work
	mode := "untraced"
	if e.trace {
		mode = "traced"
	}
	e.logf("hydra-bench: %s, seed %d, %s pass, %s window", w.name, e.seed, mode, e.window)
	// Flush what earlier runs left dirty, so its writeback does not land in
	// this run's measured phase.
	syscall.Sync()
	o, err := w.run(ctx, e)
	if err != nil {
		return result{}, err
	}
	if o.ops == 0 || len(o.latMS) == 0 || len(o.setup) == 0 {
		return result{}, errors.New("the measured phase completed no op")
	}
	r := result{Workload: w.name, Seed: e.seed, Trace: e.trace, Attempted: o.ops, Failed: o.failed,
		Metrics: map[string]float64{}, Extra: o.extra, LatencyOf: o.latWhat, Digest: o.digest, traces: o.traces}
	lat := summarizeLatency(o.latMS)
	r.Samples = map[string]int{"ops": o.ops, "latency": lat.n, "setup": len(o.setup), "tail_beyond": lat.tailCount}
	e2e := map[string]float64{
		"setup_s":     median(o.setup),
		"ops_per_s":   float64(o.ops) / o.win.wall.Seconds(),
		"p50_ms":      lat.p50,
		"p90_ms":      lat.p90,
		"peak_rss_mb": float64(o.rssKB) / 1024,
	}
	if lat.tailP > 0.9 {
		r.Extra[fmt.Sprintf("p%s_ms", strings.TrimPrefix(fmtValue(lat.tailP*100), "0"))] = lat.tail
	}
	if !e.trace {
		r.Metrics = e2e
	} else {
		r.Extra["traced_ops_per_s"] = e2e["ops_per_s"]
		ops := float64(o.ops)
		o.layers["server.cpu_us_per_op"] = float64(o.childCPU) / float64(time.Microsecond) / ops
		o.layers["client.cpu_us_per_op"] = float64(o.win.clientCPU) / float64(time.Microsecond) / ops
		o.layers["engine.cpu_util"] = o.childCPU.Seconds() / (o.win.wall.Seconds() * float64(runtime.NumCPU()))
		o.layers["runtime.gc_per_kop"] = float64(o.gcs) * 1000 / ops
		s := o.spans
		if s == nil {
			s = &traceSummary{}
		} else if s.traces == 0 {
			return result{}, errors.New("no server trace matched a request of the measured phase")
		}
		for _, name := range spanLayers {
			o.layers["span."+name+".self_us"] = s.selfUS[name]
		}
		o.layers["http.transport_us"] = s.transportUS
		o.layers["request.unattributed_us"] = s.unattribute
		for _, m := range perLayer {
			v, ok := o.layers[m.name]
			if !ok {
				return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			r.Metrics[m.name] = v
		}
		if s.traces > 0 {
			r.Extra["traced.mean_latency_us"] = s.latencyUS
			r.Extra["trace.coverage"] = s.coverage()
			r.Samples["traces"] = s.traces
			verdict := "within"
			if math.Abs(s.coverage()-1) > 0.1 {
				verdict = "NOT within"
			}
			r.Notes = append(r.Notes, fmt.Sprintf("reconcile: named span self times plus transport explain %.1f%% of the traced mean latency (%s 10%%); request.unattributed_us is the route span's own time", 100*s.coverage(), verdict))
		}
	}
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", k, v)
		}
	}
	r.Golden = "not recorded for this seed"
	switch want, ok := golden()[fmt.Sprint(e.seed)][w.name]; {
	case e.sc != fullScale:
		r.Golden = "not checked at this scale"
	case o.digest == "":
		r.Golden = "too few ops for the digest"
	case !ok:
	case want == o.digest:
		r.Golden = "match"
	default:
		r.Golden = "MISMATCH (want " + want + ")"
		o.checks = append(o.checks, fail("golden", "digest %s differs from the recorded %s", o.digest, want))
	}
	r.Correct = o.failed == 0
	for _, c := range o.checks {
		mark := "ok  "
		if !c.ok {
			mark, r.Correct = "FAIL", false
		}
		r.Checks = append(r.Checks, mark+" "+c.name+": "+c.detail)
	}
	return r, nil
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// printResult prints one run as a table.
func printResult(w io.Writer, r result, e *env) {
	mode, defs := "untraced", endToEnd
	if r.Trace {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s | seed %d | %s pass | %s window | %d ops, %d latency samples (%s) ==\n",
		r.Workload, r.Seed, mode, e.window, r.Samples["ops"], r.Samples["latency"], r.LatencyOf)
	for _, m := range defs {
		fmt.Fprintf(w, "  %s%s %s\n", pad(m.name, 30), pad(fmtValue(r.Metrics[m.name]), 24), m.unit)
	}
	if len(r.Extra) > 0 {
		fmt.Fprintln(w, "  diagnostics:")
		keys := make([]string, 0, len(r.Extra))
		for k := range r.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "    %s%s\n", pad(k, 34), fmtValue(r.Extra[k]))
		}
	}
	fmt.Fprintf(w, "  samples: %v\n", r.Samples)
	fmt.Fprintf(w, "  digest: %s (golden: %s)\n", r.Digest, r.Golden)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  %s\n", c)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note %s\n", n)
	}
}

// resultLine renders the closing JSON line. A single run reports its own
// metrics; several runs report each workload's medians under
// "<workload>.<metric>".
func resultLine(results []result, trace, merged bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	byWorkload := map[string][]result{}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for name, rs := range byWorkload {
		for _, m := range defs {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = r.Metrics[m.name]
			}
			key := m.name
			if merged {
				key = name + "." + m.name
			}
			line.Metrics[key] = value{median(vals), m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // runOne rejects NaN and Inf, the only values that do not marshal
	}
	return string(b), line.Correct
}

// stamp records what a report was measured on.
type stamp struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs_bench"`
	ChildMaxProcs string  `json:"gomaxprocs_child"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision"`
	BuildSeconds  float64 `json:"build_s"`
}

func newStamp(build time.Duration) stamp {
	s := stamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown", BuildSeconds: build.Seconds()}
	// The children inherit the environment; without GOMAXPROCS set, the Go
	// runtime of this toolchain uses every CPU.
	s.ChildMaxProcs = os.Getenv("GOMAXPROCS")
	if s.ChildMaxProcs == "" {
		s.ChildMaxProcs = fmt.Sprint(runtime.NumCPU())
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Revision = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					s.Revision += "+modified"
				}
			}
		}
	}
	return s
}

func (s stamp) String() string {
	return fmt.Sprintf("hydra-bench: nproc %d, GOMAXPROCS bench %d / child %s, %s, revision %s, programs built in %.1fs (not a metric); load: %d closed-loop clients on %d keep-alive connections",
		s.NumCPU, s.GOMAXPROCS, s.ChildMaxProcs, s.GoVersion, s.Revision, s.BuildSeconds, clients, clients)
}
