package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// scale fixes the size of every workload's inputs. Runs use fullScale; the
// smoke test uses a tiny one.
type scale struct {
	sweepTasksets int     // tasksets per utilization point in one dse-sweep invocation
	replicaLevels int     // utilization levels at M=4 recomputed in process per sweep
	coldPool      int     // distinct allocate-cold base problems
	hotPool       int     // primed allocate-hot problems
	systems       int     // durable systems in systems-durable
	setupRepeats  int     // set-ups per run at least; setup_s is the median of all
	setupBudget   float64 // seconds: further set-ups run while their total stays below this
	restarts      int     // SIGKILL restarts after systems-durable
	digestOps     int     // leading ops (per system for systems-durable) in the golden digest
	replayLimit   int     // problems timed by the in-process layer replay
	replayOps     int     // ops per system in the online and durable layer replays
}

var fullScale = scale{
	sweepTasksets: 10,
	replicaLevels: 3,
	coldPool:      4096,
	hotPool:       512,
	systems:       16,
	setupRepeats:  5,
	setupBudget:   3,
	restarts:      3,
	digestOps:     1024,
	replayLimit:   256,
	replayOps:     256,
}

// clients is the closed-loop client count: the load comes from one process
// over this many keep-alive connections.
const clients = 2

// env is one workload run's context.
type env struct {
	bins   string // directory holding the built hydra-serve and hydra-experiments
	work   string // scratch directory of this run, removed afterwards
	seed   int64
	window time.Duration // how long the measured phase issues ops
	maxOps int           // op budget of the measured phase (0 = the window alone bounds it)
	trace  bool          // traced pass: spans, gctrace, per-layer replay
	sc     scale
	log    io.Writer // progress lines
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// maxSetups caps the set-ups of one run.
const maxSetups = 200

// setUp runs a workload's set-up, once returning the time one set-up took,
// at least setupRepeats times and then while their total stays below
// setupBudget, and records the times in o.setup. The shared host this
// benchmark was calibrated on slows a set-up for stretches of about a
// second, so the set-ups of a run fill seconds, not a moment: 200 of a few
// milliseconds, or a dozen of a quarter second. The benchmark collects its
// own garbage first (it has just built the inputs), so its collector does
// not run beside the timed set-ups.
//
// Each set-up starts on a synced file system. A set-up writes files (a
// server's systems directory, each durable system's manifest and log), and
// without the sync each one also pays for what its predecessors left dirty:
// back to back, the sixteen durable creates of systems-durable slowed from
// 15 ms to 35 ms over a few dozen set-ups, then fell back, so the median
// depended on where in that cycle the set-ups fell. With the sync they stay
// near 15 ms.
func (e *env) setUp(o *outcome, once func(i int) (time.Duration, error)) error {
	runtime.GC()
	total := 0.0
	for i := 0; i < e.sc.setupRepeats || (i < maxSetups && total < e.sc.setupBudget); i++ {
		syscall.Sync()
		d, err := once(i)
		if err != nil {
			return err
		}
		o.setup = append(o.setup, d.Seconds())
		total += d.Seconds()
	}
	return nil
}

// buildBinaries compiles the two programs under test from the tree at root.
func buildBinaries(ctx context.Context, root, out string, log io.Writer) (time.Duration, error) {
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out+string(os.PathSeparator), "./cmd/hydra-serve", "./cmd/hydra-experiments")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("build programs under test: %w", err)
	}
	return time.Since(start), nil
}

// childEnv is the environment of every program under test: the bench's own,
// plus a GC trace on stderr in the traced pass.
func (e *env) childEnv() []string {
	env := os.Environ()
	if e.trace {
		env = append(env, "GODEBUG=gctrace=1")
	}
	return env
}

// usage is a finished child's resource use.
type usage struct {
	cpu   time.Duration
	rssKB int64
}

func usageOf(ps *os.ProcessState) usage {
	if ps == nil {
		return usage{}
	}
	u := usage{cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.rssKB = ru.Maxrss
	}
	return u
}

// selfCPU is the bench process's own CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// server is one running hydra-serve child.
type server struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	ready   time.Duration // exec to the "listening" log line
	gcs     atomic.Int64  // gctrace lines seen on stderr
	logDone chan struct{}
	tail    []string // last stderr lines, for error messages
	tailMu  sync.Mutex
	state   *os.ProcessState
}

// startServer execs hydra-serve on an ephemeral loopback port with the given
// extra flags and waits for its "listening" log line.
func (e *env) startServer(ctx context.Context, extra ...string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-log-format", "json", "-jobs-dir", filepath.Join(e.work, "jobs")}
	if e.trace {
		args = append(args, "-trace-sample", "16", "-trace-ring", "65536")
	}
	args = append(args, extra...)
	s := &server{cmd: exec.Command(filepath.Join(e.bins, "hydra-serve"), args...), logDone: make(chan struct{})}
	s.cmd.Env = e.childEnv()
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hydra-serve: %w", err)
	}
	addrc := make(chan string, 1)
	go s.readLog(stderr, addrc)
	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	select {
	case addr, ok := <-addrc:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("hydra-serve exited before listening: %s", s.lastLines())
		}
		s.ready = time.Since(start)
		s.base = "http://" + addr
		return s, nil
	case <-timer.C:
		s.stop()
		return nil, fmt.Errorf("hydra-serve not listening after 30s: %s", s.lastLines())
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
}

// readLog drains the child's stderr: it reports the listening address once,
// counts GC trace lines, and keeps a short tail for error messages.
func (s *server) readLog(r io.Reader, addrc chan<- string) {
	defer close(s.logDone)
	defer close(addrc)
	sent := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "gc ") {
			s.gcs.Add(1)
			continue
		}
		s.tailMu.Lock()
		s.tail = append(s.tail, line)
		if len(s.tail) > 8 {
			s.tail = s.tail[1:]
		}
		s.tailMu.Unlock()
		if !sent && strings.Contains(line, `"msg":"listening"`) {
			var rec struct{ Addr string }
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Addr != "" {
				addrc <- rec.Addr
				sent = true
			}
		}
	}
}

func (s *server) lastLines() string {
	s.tailMu.Lock()
	defer s.tailMu.Unlock()
	return strings.Join(s.tail, " | ")
}

// stop SIGKILLs the child and waits for it and its log reader; it returns
// the child's resource use. Safe to call more than once.
func (s *server) stop() usage {
	if s.state == nil {
		_ = s.cmd.Process.Kill()
		<-s.logDone
		_ = s.cmd.Wait() // a killed child always reports an error
		s.state = s.cmd.ProcessState
	}
	return usageOf(s.state)
}

// runExperiments runs hydra-experiments to completion.
func (e *env) runExperiments(ctx context.Context, args ...string) (out []byte, took time.Duration, u usage, gcs int, err error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(e.bins, "hydra-experiments"), args...)
	cmd.Env = e.childEnv()
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	took = time.Since(start)
	u = usageOf(cmd.ProcessState)
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "gc ") {
			gcs++
		}
	}
	if err != nil {
		return nil, took, u, gcs, fmt.Errorf("hydra-experiments %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return stdout.Bytes(), took, u, gcs, nil
}

// api is an HTTP client for one server, pooling at most conns keep-alive
// connections.
type api struct {
	c    *http.Client
	base string
}

func newAPI(base string, conns int) *api {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &api{c: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (a *api) close() { a.c.CloseIdleConnections() }

// reply is a response's status and the headers the checks read.
type reply struct {
	status int
	cache  string // X-Cache
}

// do sends one request and reads the whole response body into buf.
func (a *api) do(ctx context.Context, method, path string, body []byte, reqID string, buf *bytes.Buffer) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache")}, nil
}

// get fetches path and fails on any status but 200.
func (a *api) get(ctx context.Context, path string) ([]byte, error) {
	var buf bytes.Buffer
	r, err := a.do(ctx, http.MethodGet, path, nil, "", &buf)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, r.status, buf.String())
	}
	return buf.Bytes(), nil
}

func (a *api) scrape(ctx context.Context) (scrape, error) {
	body, err := a.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseScrape(body)
}

// window is the measured phase's bookkeeping.
type window struct {
	wall      time.Duration
	clientCPU time.Duration
}

// loop runs the measured phase: one closed-loop client per index, each
// issuing its next op only after the previous one completed, until the
// window ends, the op budget is spent or ctx is cancelled. newClient is
// called on the client's own goroutine and returns its op; an op error
// aborts the run.
func (e *env) loop(ctx context.Context, newClient func(c int) func() error) (window, error) {
	var issued atomic.Int64
	deadline := time.Now().Add(e.window)
	more := func() bool {
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			return false
		}
		return e.maxOps == 0 || issued.Add(1) <= int64(e.maxOps)
	}
	runtime.GC() // none of the set-up's garbage is collected in the measured phase
	cpu0, start := selfCPU(), time.Now()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			op := newClient(c)
			for more() {
				if err := op(); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	w := window{wall: time.Since(start), clientCPU: selfCPU() - cpu0}
	if err := errors.Join(errs...); err != nil {
		return w, err
	}
	return w, ctx.Err()
}

// check is one output check's verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

func pass(name, detail string, args ...any) check {
	return check{name: name, ok: true, detail: fmt.Sprintf(detail, args...)}
}

func fail(name, detail string, args ...any) check {
	return check{name: name, detail: fmt.Sprintf(detail, args...)}
}
