package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/service"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
	"hydra/internal/tasksetio"
)

// problemSpec is one generated taskset together with the draw that made it,
// so the layer replay can time the generator on the very same draw.
type problemSpec struct {
	params taskgen.Params
	seed   int64
	stream int64 // the workload is taskgen.Generate(params, stats.Split(seed, stream))
	w      *taskgen.Workload
}

// allocatePool draws n allocation problems: M uniform in {4, 8} and total
// utilization uniform in [0.3M, 0.8M], with the paper's taskgen parameters.
// A draw taskgen cannot split is redrawn from the next stream.
func allocatePool(seed int64, n int, pickStream, drawStream int64) []problemSpec {
	pick := stats.Split(seed, pickStream)
	pool := make([]problemSpec, 0, n)
	for i := 0; i < n; i++ {
		m := 4 << pick.Intn(2)
		util := (0.3 + 0.5*pick.Float64()) * float64(m)
		for attempt := int64(0); ; attempt++ {
			ps := problemSpec{params: taskgen.DefaultParams(m, util), seed: seed, stream: drawStream + int64(i)<<8 + attempt}
			w, err := taskgen.Generate(ps.params, stats.Split(ps.seed, ps.stream))
			if err == nil {
				ps.w = w
				pool = append(pool, ps)
				break
			}
		}
	}
	return pool
}

// document converts a generated workload to the wire taskset.
func document(m int, w *taskgen.Workload) tasksetio.Document {
	doc := tasksetio.Document{Cores: m, RTTasks: []tasksetio.RTTaskJSON{}, SecurityTasks: []tasksetio.SecurityTaskJSON{}}
	for _, t := range w.RT {
		doc.RTTasks = append(doc.RTTasks, tasksetio.RTTaskJSON{Name: t.Name, WCET: t.C, Period: t.T})
	}
	for _, s := range w.Sec {
		doc.SecurityTasks = append(doc.SecurityTasks, tasksetio.SecurityTaskJSON{Name: s.Name, WCET: s.C, DesiredPeriod: s.TDes, MaxPeriod: s.TMax})
	}
	return doc
}

// allocateBody is the POST /v1/allocate request for a pool problem.
func allocateBody(ps problemSpec) []byte {
	b, err := json.Marshal(service.AllocateRequest{Taskset: document(ps.params.M, ps.w)})
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return b
}

// decodeAllocate parses a request body the way the server does.
func decodeAllocate(body []byte) (*tasksetio.Problem, error) {
	var req service.AllocateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return req.Taskset.ToProblem()
}

// encodeResult renders a result body exactly as the server does: two-space
// indented JSON with a trailing newline.
func encodeResult(buf *bytes.Buffer, canon *tasksetio.Problem, res *core.Result) error {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(tasksetio.ResultToJSON(canon, res))
}

// expectedAllocate recomputes in process the body the server must answer a
// request with, and checks a schedulable answer against the paper's
// analysis: Eq. 6 through core.Verify and every period in [TDes, TMax].
func expectedAllocate(body []byte) ([]byte, error) {
	p, err := decodeAllocate(body)
	if err != nil {
		return nil, err
	}
	canon := p.Canonical()
	hydra := core.MustLookup(service.DefaultScheme)
	var res *core.Result
	in, err := tasksetio.BuildInput(canon, hydra, partition.BestFit)
	if err != nil {
		res = &core.Result{Scheme: hydra.Name(), Reason: err.Error()}
	} else {
		res = hydra.Allocate(in)
		if res.Schedulable {
			if err := core.Verify(in, res); err != nil {
				return nil, err
			}
			for i, s := range in.Sec {
				if res.Periods[i] < s.TDes*(1-1e-9) || res.Periods[i] > s.TMax*(1+1e-9) {
					return nil, fmt.Errorf("task %s period %g outside [%g, %g]", s.Name, res.Periods[i], s.TDes, s.TMax)
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := encodeResult(&buf, canon, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// coldTemplate splits a pool problem's request around its first security
// task's name, so request n can carry that name suffixed by n.
type coldTemplate struct{ head, tail []byte }

const coldMarker = "\x00cold-name\x00"

func newColdTemplate(ps problemSpec) coldTemplate {
	doc := document(ps.params.M, ps.w)
	name := doc.SecurityTasks[0].Name
	doc.SecurityTasks[0].Name = coldMarker
	b, err := json.Marshal(service.AllocateRequest{Taskset: doc})
	if err != nil {
		panic(err)
	}
	marker, _ := json.Marshal(coldMarker)
	i := bytes.Index(b, marker)
	head := append(append([]byte(nil), b[:i]...), `"`+name+`-`...)
	return coldTemplate{head: head, tail: append([]byte(`"`), b[i+len(marker):]...)}
}

func (t coldTemplate) body(dst []byte, n int) []byte {
	dst = append(dst[:0], t.head...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, t.tail...)
}

// indexedDigest hashes (index, body hash) pairs in index order.
func indexedDigest(hashes [][32]byte) string {
	h := sha256.New()
	var idx [8]byte
	for i, sum := range hashes {
		binary.BigEndian.PutUint64(idx[:], uint64(i))
		h.Write(idx[:])
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measureServer brackets a serving workload's measured phase with /metrics
// scrapes and folds the results into o.
func measureServer(ctx context.Context, e *env, s *server, o *outcome, newClient func(c int) func() error) (scrape, scrape, error) {
	admin := newAPI(s.base, 1)
	defer admin.close()
	before, err := admin.scrape(ctx)
	if err != nil {
		return nil, nil, err
	}
	o.win, err = e.loop(ctx, newClient)
	if err != nil {
		return nil, nil, err
	}
	after, err := admin.scrape(ctx)
	if err != nil {
		return nil, nil, err
	}
	return before, after, nil
}

// latencies merges per-client latency samples.
func latencies(per [clients][]float64) []float64 {
	var all []float64
	for _, l := range per {
		all = append(all, l...)
	}
	return all
}

// runCold is the allocate-cold workload: every request carries a problem no
// earlier request had, so each misses the result cache and runs the whole
// decode, key, partition, Algorithm 1, verify and encode path.
func runCold(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{latWhat: "requests", extra: map[string]float64{}}
	pool := allocatePool(e.seed, e.sc.coldPool, streamColdPick, streamColdDraw)
	tmpl := make([]coldTemplate, len(pool))
	for i, ps := range pool {
		tmpl[i] = newColdTemplate(ps)
	}
	var s *server
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	err := e.setUp(o, func(i int) (time.Duration, error) {
		if s != nil {
			s.stop()
		}
		var err error
		s, err = e.startServer(ctx, "-systems-dir", filepath.Join(e.work, fmt.Sprintf("sys-%d", i)))
		if err != nil {
			return 0, err
		}
		return s.ready, nil
	})
	if err != nil {
		return nil, err
	}

	const sampleEvery = 256
	var next atomic.Int64
	var lat [clients][]float64
	var bad [clients]int
	var firstBad [clients]string
	hashes := make([][32]byte, e.sc.digestOps)
	var samples [clients]map[int][]byte
	tr := newTraceIDs(e.trace)
	load := newAPI(s.base, clients)
	defer load.close()
	before, after, err := measureServer(ctx, e, s, o, func(c int) func() error {
		var buf bytes.Buffer
		var body []byte
		samples[c] = map[int][]byte{}
		return func() error {
			n := int(next.Add(1) - 1)
			body = tmpl[n%len(tmpl)].body(body, n)
			id := tr.id(c)
			t0 := time.Now()
			r, err := load.do(ctx, http.MethodPost, "/v1/allocate", body, id, &buf)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			lat[c] = append(lat[c], float64(d)/float64(time.Millisecond))
			tr.record(c, d)
			if r.status != http.StatusOK || r.cache != "MISS" {
				if bad[c] == 0 {
					firstBad[c] = fmt.Sprintf("request %d: status %d, X-Cache %q", n, r.status, r.cache)
				}
				bad[c]++
				return nil
			}
			if n < len(hashes) {
				hashes[n] = sha256.Sum256(buf.Bytes())
			}
			if n%sampleEvery == 0 {
				samples[c][n] = append([]byte(nil), buf.Bytes()...)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	o.latMS = latencies(lat)
	o.ops = len(o.latMS)
	o.failed = bad[0] + bad[1]
	if o.failed > 0 {
		o.checks = append(o.checks, fail("status", "%d of %d requests not 200/MISS; first: %s%s", o.failed, o.ops, firstBad[0], firstBad[1]))
	} else {
		o.checks = append(o.checks, pass("status", "%d requests, all 200 and cache misses", o.ops))
	}
	if misses, hits := delta(before, after, "hydra_cache_misses_total"), delta(before, after, "hydra_cache_hits_total"); int(misses) != o.ops || hits != 0 {
		o.checks = append(o.checks, fail("cache", "/metrics counted %.0f misses and %.0f hits for %d unique requests", misses, hits, o.ops))
	} else {
		o.checks = append(o.checks, pass("cache", "/metrics: %.0f misses, 0 hits", misses))
	}
	if o.ops >= len(hashes) {
		o.digest = indexedDigest(hashes)
	}
	verified, mismatched := 0, ""
	for _, m := range samples {
		for n, got := range m {
			want, err := expectedAllocate(tmpl[n%len(tmpl)].body(nil, n))
			switch {
			case err != nil:
				mismatched = fmt.Sprintf("request %d: %v", n, err)
			case !bytes.Equal(got, want):
				mismatched = fmt.Sprintf("request %d: body differs from the in-process allocation", n)
			}
			verified++
		}
	}
	if mismatched != "" {
		o.checks = append(o.checks, fail("bodies", "%s", mismatched))
	} else {
		o.checks = append(o.checks, pass("bodies", "every %dth body (%d) equals the in-process allocation, passes core.Verify and TDes <= Ts <= TMax", sampleEvery, verified))
	}
	if err := finishServer(ctx, e, s, o, before, after, tr); err != nil {
		return nil, err
	}
	if e.trace {
		if err := replayLayers(ctx, e, o, pool, nil); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// hotDrift is how many requests of one allocate-hot client pass before its
// popular set shifts by one problem.
const hotDrift = 128

// runHot is the allocate-hot workload: a Zipf(1.1) stream over problems
// primed during set-up, a working set smaller than the result cache, so
// nearly every request is answered from memory.
func runHot(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{latWhat: "requests", extra: map[string]float64{}}
	pool := allocatePool(e.seed, e.sc.hotPool, streamHotPick, streamHotDraw)
	bodies := make([][]byte, len(pool))
	for i, ps := range pool {
		bodies[i] = allocateBody(ps)
	}
	primed := make([][]byte, len(pool))
	var s *server
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	err := e.setUp(o, func(i int) (time.Duration, error) {
		if s != nil {
			s.stop()
		}
		var err error
		start := time.Now()
		if s, err = e.startServer(ctx, "-systems-dir", filepath.Join(e.work, fmt.Sprintf("sys-%d", i))); err != nil {
			return 0, err
		}
		prime := newAPI(s.base, 1)
		defer prime.close()
		var buf bytes.Buffer
		for j, body := range bodies {
			r, err := prime.do(ctx, http.MethodPost, "/v1/allocate", body, "", &buf)
			if err != nil {
				return 0, err
			}
			if r.status != http.StatusOK {
				return 0, fmt.Errorf("priming problem %d: status %d: %s", j, r.status, buf.String())
			}
			if primed[j] == nil {
				primed[j] = append([]byte(nil), buf.Bytes()...)
			} else if !bytes.Equal(primed[j], buf.Bytes()) {
				return 0, fmt.Errorf("priming problem %d: body differs between set-ups", j)
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	hashes := make([][32]byte, len(primed))
	for i, b := range primed {
		hashes[i] = sha256.Sum256(b)
	}
	o.digest = indexedDigest(hashes)

	var lat [clients][]float64
	var bad, hits [clients]int
	var firstBad [clients]string
	tr := newTraceIDs(e.trace)
	load := newAPI(s.base, clients)
	defer load.close()
	before, after, err := measureServer(ctx, e, s, o, func(c int) func() error {
		zipf := rand.NewZipf(stats.Split(e.seed, streamHotClient+int64(c)), 1.1, 1, uint64(len(bodies)-1))
		var buf bytes.Buffer
		k := 0
		return func() error {
			// Zipf(1.1) puts over half of the requests on its ten top ranks,
			// so with a fixed rank-to-problem map the seed's choice of ten
			// problems would set the run's mean request size. The popular
			// set drifts instead: the map shifts by one problem every
			// hotDrift requests, and a run averages over the pool.
			i := (int(zipf.Uint64()) + c*len(bodies)/clients + k/hotDrift) % len(bodies)
			k++
			id := tr.id(c)
			t0 := time.Now()
			r, err := load.do(ctx, http.MethodPost, "/v1/allocate", bodies[i], id, &buf)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			lat[c] = append(lat[c], float64(d)/float64(time.Millisecond))
			tr.record(c, d)
			if r.status != http.StatusOK || !bytes.Equal(buf.Bytes(), primed[i]) {
				if bad[c] == 0 {
					firstBad[c] = fmt.Sprintf("problem %d: status %d, body equal to primed: %t", i, r.status, bytes.Equal(buf.Bytes(), primed[i]))
				}
				bad[c]++
			}
			if r.cache == "HIT" {
				hits[c]++
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	o.latMS = latencies(lat)
	o.ops = len(o.latMS)
	o.failed = bad[0] + bad[1]
	if o.failed > 0 {
		o.checks = append(o.checks, fail("bodies", "%d of %d responses not 200 with the primed body; first: %s%s", o.failed, o.ops, firstBad[0], firstBad[1]))
	} else {
		o.checks = append(o.checks, pass("bodies", "%d responses, all 200 and byte-equal to their primed body (%d cache hits)", o.ops, hits[0]+hits[1]))
	}
	if err := finishServer(ctx, e, s, o, before, after, tr); err != nil {
		return nil, err
	}
	if e.trace {
		if err := replayLayers(ctx, e, o, pool, nil); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// finishServer stops a serving workload's server and records what the
// process and its counters and spans say about the measured phase.
func finishServer(ctx context.Context, e *env, s *server, o *outcome, before, after scrape, tr *traceIDs) error {
	if e.trace {
		admin := newAPI(s.base, 1)
		body, err := admin.get(ctx, "/v1/debug/traces?min_ms=0")
		admin.close()
		if err != nil {
			return err
		}
		var resp service.TracesResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode traces: %w", err)
		}
		sum := summarizeTraces(resp.Traces, tr.latencyUS)
		o.spans, o.traces = &sum, resp.Traces
	}
	u := s.stop()
	o.childCPU, o.rssKB, o.gcs = u.cpu, u.rssKB, s.gcs.Load()
	o.layers = serverLayers(before, after, o.ops)
	return nil
}

// traceIDs tags each measured request of a traced run with a request id and
// keeps the client latency under it, so server traces can be matched to
// what the client saw.
type traceIDs struct {
	on  bool
	seq [clients]int
	lat [clients][]time.Duration
}

func newTraceIDs(on bool) *traceIDs { return &traceIDs{on: on} }

// id returns the next request id of client c ("" when untraced).
func (t *traceIDs) id(c int) string {
	if !t.on {
		return ""
	}
	return "b" + strconv.Itoa(c) + "-" + strconv.Itoa(t.seq[c])
}

// record stores the latency of client c's current request.
func (t *traceIDs) record(c int, d time.Duration) {
	if t.on {
		t.lat[c] = append(t.lat[c], d)
		t.seq[c]++
	}
}

// latencyUS looks up the client latency of a request id.
func (t *traceIDs) latencyUS(id string) (float64, bool) {
	var c, n int
	if _, err := fmt.Sscanf(id, "b%d-%d", &c, &n); err != nil || c < 0 || c >= clients || n < 0 || n >= len(t.lat[c]) {
		return 0, false
	}
	return float64(t.lat[c][n]) / float64(time.Microsecond), true
}
