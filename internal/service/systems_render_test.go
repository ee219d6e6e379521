package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/stats"
	"hydra/internal/syspersist"
	"hydra/internal/taskgen"
	"hydra/internal/tasksetio"
)

// systemJSON is the reflective reference for appendSystem: the SystemJSON
// whose encoding/json rendering every system document must equal.
func systemJSON(snap online.Snapshot) SystemJSON {
	out := SystemJSON{
		ID:                  snap.ID,
		Scheme:              snap.Scheme,
		Heuristic:           snap.Heuristic.String(),
		Cores:               snap.M,
		Version:             snap.Version,
		RTTasks:             []SystemRTTaskJSON{},
		SecurityTasks:       []SystemSecTaskJSON{},
		CumulativeTightness: snap.Cumulative,
	}
	for _, p := range snap.RT {
		j := SystemRTTaskJSON{Name: p.Task.Name, WCET: p.Task.C, Period: p.Task.T, Core: p.Core}
		if p.Task.D != p.Task.T {
			j.Deadline = p.Task.D
		}
		out.RTTasks = append(out.RTTasks, j)
	}
	for _, p := range snap.Sec {
		out.SecurityTasks = append(out.SecurityTasks, SystemSecTaskJSON{
			Name:          p.Task.Name,
			WCET:          p.Task.C,
			DesiredPeriod: p.Task.TDes,
			MaxPeriod:     p.Task.TMax,
			Weight:        p.Task.Weight,
			Core:          p.Core,
			PeriodMS:      p.Period,
			Tightness:     p.Tightness(),
		})
	}
	return out
}

// referenceBody is the body writeJSON sends for v, or nil when encoding/json
// refuses v.
func referenceBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// renderBody is the body a system route sends for the document render
// writes, or nil when the writer is not OK.
func renderBody(render func(*tasksetio.JSONWriter)) []byte {
	var jw tasksetio.JSONWriter
	render(&jw)
	if !jw.OK() {
		return nil
	}
	return append(jw.Buf, '\n')
}

// oddNames exercise both string paths: copied plain ASCII and the
// encoding/json escapes for quotes, backslashes, HTML characters, control
// characters, DEL, U+2028 and invalid UTF-8.
var oddNames = []string{"", "ctl", "s-0.5", "é", "a<b", "a&b", "a>b", `a"b`, `a\b`, "line\u2028sep", "tab\t", "nul\x00", "\xff\xfe", "del\x7f"}

// oddFloats sit on the edges of encoding/json's float format: zeros of
// both signs, a subnormal, both sides of the 1e-6 and 1e21 cutoffs and the
// largest float.
var oddFloats = []float64{0, math.Copysign(0, -1), 5e-324, 9.99e-7, 1e-6, 0.1, 1, 20, 123456.789, 1e20, 1e21, math.MaxFloat64}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return oddFloats[rng.Intn(len(oddFloats))]
	}
	f := math.Pow(10, 60*rng.Float64()-30) * (0.5 + rng.Float64())
	if rng.Intn(4) == 0 {
		f = -f
	}
	return f
}

func randName(rng *rand.Rand, i int) string {
	if rng.Intn(2) == 0 {
		return oddNames[rng.Intn(len(oddNames))]
	}
	return fmt.Sprintf("t%d", i)
}

// randomSnapshot draws a snapshot field by field, without regard to
// schedulability: lists may be empty, deadlines and weights may be zero,
// equal to the period or anything else.
func randomSnapshot(rng *rand.Rand) online.Snapshot {
	snap := online.Snapshot{
		ID:         randName(rng, 0),
		Scheme:     randName(rng, 1),
		Heuristic:  partition.Heuristic(rng.Intn(6)),
		M:          rng.Intn(9) - 1,
		Version:    rng.Uint64() >> uint(rng.Intn(64)),
		Cumulative: randFloat(rng),
	}
	for i := rng.Intn(3) * rng.Intn(6); i > 0; i-- {
		t := rts.RTTask{Name: randName(rng, i), C: randFloat(rng), T: randFloat(rng)}
		switch rng.Intn(3) {
		case 0:
			t.D = t.T
		case 1:
			t.D = 0.5 * t.T
		default:
			t.D = randFloat(rng)
		}
		snap.RT = append(snap.RT, online.PlacedRT{Task: t, Core: rng.Intn(8)})
	}
	for i := rng.Intn(3) * rng.Intn(6); i > 0; i-- {
		t := rts.SecurityTask{Name: randName(rng, i), C: randFloat(rng), TDes: randFloat(rng), TMax: randFloat(rng)}
		if rng.Intn(2) == 0 {
			t.Weight = randFloat(rng)
		}
		snap.Sec = append(snap.Sec, online.PlacedSec{Task: t, Core: rng.Intn(8), Period: randFloat(rng)})
	}
	return snap
}

// TestAppendSystemMatchesEncodingJSON renders random snapshots and compares
// the bytes with encoding/json's rendering of the reflective reference. A
// snapshot encoding/json refuses must fail the appender too.
// TestSystemRoutesMatchEncodingJSON covers the list, which nests the same
// document one level deeper.
func TestAppendSystemMatchesEncodingJSON(t *testing.T) {
	rng := stats.Split(15, 1)
	refused := 0
	for i := 0; i < 2000; i++ {
		snap := randomSnapshot(rng)
		if i%50 == 0 {
			snap.Cumulative = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i/50%3]
		}
		want := referenceBody(systemJSON(snap))
		got := renderBody(func(jw *tasksetio.JSONWriter) { appendSystem(jw, snap) })
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d: appender and encoding/json differ\nappender:\n%s\nencoding/json:\n%s", i, got, want)
		}
		if want == nil {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no snapshot exercised the non-finite path")
	}
}

// TestSystemRoutesMatchEncodingJSON drives real systems over HTTP, created
// from taskgen workloads with odd names, weights and D < T, through admits,
// removals and reallocations, and compares every system document the
// server sends with encoding/json's rendering of the same committed state.
func TestSystemRoutesMatchEncodingJSON(t *testing.T) {
	s := newServer(t)
	rng := stats.Split(15, 2)
	check := func(what string, got []byte, snap online.Snapshot) {
		t.Helper()
		if want := referenceBody(systemJSON(snap)); !bytes.Equal(got, want) {
			t.Fatalf("%s: body differs from encoding/json\nserver:\n%s\nencoding/json:\n%s", what, got, want)
		}
	}
	created := 0
	for j := 0; j < 12; j++ {
		w, err := taskgen.Generate(taskgen.DefaultParams(2+j%3, 0.4+0.2*float64(j%4)), stats.Split(15, 100+int64(j)))
		if err != nil {
			t.Fatal(err)
		}
		doc := tasksetio.Document{Cores: 2 + j%3, RTTasks: []tasksetio.RTTaskJSON{}, SecurityTasks: []tasksetio.SecurityTaskJSON{}}
		if j%6 != 1 {
			for i, rt := range w.RT {
				tj := tasksetio.RTTaskJSON{Name: fmt.Sprintf("%s-r%d", oddNames[(i+j)%len(oddNames)], i), WCET: rt.C, Period: rt.T}
				if i%3 == 0 {
					tj.Deadline = rt.T - 0.25*(rt.T-rt.C)
				}
				doc.RTTasks = append(doc.RTTasks, tj)
			}
		}
		if j%6 != 2 {
			for i, sec := range w.Sec {
				doc.SecurityTasks = append(doc.SecurityTasks, tasksetio.SecurityTaskJSON{
					Name: fmt.Sprintf("%s-s%d", oddNames[(i+2*j)%len(oddNames)], i), WCET: sec.C,
					DesiredPeriod: sec.TDes, MaxPeriod: sec.TMax, Weight: float64(i%3) * rng.Float64() * 4,
				})
			}
		}
		body, err := json.Marshal(SystemCreateRequest{ID: fmt.Sprintf("sys-%d", j), Taskset: doc, ReallocateAfter: j % 3})
		if err != nil {
			t.Fatal(err)
		}
		resp := post(t, s, "/v1/systems", string(body))
		if resp.Code != http.StatusCreated {
			continue // D < T made this draw unschedulable
		}
		created++
		var sys SystemJSON
		if err := json.Unmarshal(resp.Body.Bytes(), &sys); err != nil {
			t.Fatal(err)
		}
		ds, ok := s.systems.Get(sys.ID)
		if !ok {
			t.Fatalf("created system %q not in the registry", sys.ID)
		}
		check("create "+sys.ID, resp.Body.Bytes(), ds.Snapshot())
		path := "/v1/systems/" + sys.ID
		var alive []string
		for op := 0; op < 40; op++ {
			switch x := rng.Float64(); {
			case x < 0.3 && len(alive) > 0:
				k := rng.Intn(len(alive))
				del(t, s, path+"/tasks/"+alive[k])
				alive = append(alive[:k], alive[k+1:]...)
			case x < 0.4:
				resp := post(t, s, path+"/reallocate", "")
				if resp.Code == http.StatusOK {
					check("reallocate "+sys.ID, resp.Body.Bytes(), ds.Snapshot())
				}
			case x < 0.55:
				period := 10 * math.Pow(100, rng.Float64())
				c := (0.005 + 0.045*rng.Float64()) * period
				name := fmt.Sprintf("r%d", op)
				body := fmt.Sprintf(`{"rt_task": {"name": %q, "wcet_ms": %v, "period_ms": %v, "deadline_ms": %v}}`, name, c, period, c+0.9*(period-c))
				if post(t, s, path+"/tasks", body).Code == http.StatusOK {
					alive = append(alive, name)
				}
			default:
				tdes := 1000 + 2000*rng.Float64()
				name := fmt.Sprintf("s%d", op)
				body := fmt.Sprintf(`{"security_task": {"name": %q, "wcet_ms": %v, "desired_period_ms": %v, "max_period_ms": %v, "weight": %v}}`,
					name, (0.002+0.018*rng.Float64())*tdes, tdes, 10*tdes, rng.Float64())
				if post(t, s, path+"/tasks", body).Code == http.StatusOK {
					alive = append(alive, name)
				}
			}
			if get := get(t, s, path); get.Code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", path, get.Code, get.Body)
			} else {
				check("GET "+sys.ID, get.Body.Bytes(), ds.Snapshot())
			}
		}
	}
	if created < 8 {
		t.Fatalf("only %d of 12 systems were created", created)
	}
	list := SystemListResponse{Schemes: online.SupportedSchemes(), Systems: []SystemJSON{}}
	for _, ds := range s.systems.List() {
		list.Systems = append(list.Systems, systemJSON(ds.Snapshot()))
	}
	if got, want := get(t, s, "/v1/systems").Body.Bytes(), referenceBody(list); !bytes.Equal(got, want) {
		t.Fatalf("GET /v1/systems differs from encoding/json\nserver:\n%s\nencoding/json:\n%s", got, want)
	}
}

// TestSystemNonFiniteCumulativeIs500 pins the answers around a cumulative
// tightness that overflows: two security tasks of weight 1e308 at tightness
// 1 sum to +Inf. Every route that reads a taskset refuses it with a 400, and
// so does an admit that would take a system's weights past that sum. A
// system committed with such a sum anyway — a directory written before
// these checks — still opens, and its GET and the list answer the 500
// writeJSON gives for a value encoding/json refuses, never a 200 carrying
// +Inf or NaN.
func TestSystemNonFiniteCumulativeIs500(t *testing.T) {
	const (
		rt    = `[{"name": "ctl", "wcet_ms": 5, "period_ms": 20}]`
		heavy = `{"name": "a", "wcet_ms": 1, "desired_period_ms": 1000, "max_period_ms": 10000, "weight": 1e308}`
		twin  = `{"name": "b", "wcet_ms": 1, "desired_period_ms": 1000, "max_period_ms": 10000, "weight": 1e308}`
	)
	overflow := `{"cores": 2, "rt_tasks": ` + rt + `, "security_tasks": [` + heavy + `, ` + twin + `]}`
	s := newServer(t)
	if w := post(t, s, "/v1/systems", `{"id": "heavy", "taskset": {"cores": 2, "rt_tasks": `+rt+`, "security_tasks": [`+heavy+`]}}`); w.Code != http.StatusCreated {
		t.Fatalf("create heavy: %d %s", w.Code, w.Body)
	}
	for _, c := range []struct {
		what string
		w    *httptest.ResponseRecorder
	}{
		{"create", post(t, s, "/v1/systems", `{"id": "overflow", "taskset": `+overflow+`}`)},
		{"allocate", post(t, s, "/v1/allocate", allocateBody(overflow, ""))},
		{"batch", post(t, s, "/v1/allocate/batch", `{"tasksets": [`+overflow+`]}`)},
		{"simulate", post(t, s, "/v1/simulate", allocateBody(overflow, `"horizon_ms": 100`))},
		{"verify", post(t, s, "/v1/verify", `{"taskset": `+overflow+`, "result": {}}`)},
		{"admit", post(t, s, "/v1/systems/heavy/tasks", `{"security_task": `+twin+`}`)},
	} {
		if c.w.Code != http.StatusBadRequest || !strings.Contains(c.w.Body.String(), "must be finite") {
			t.Errorf("%s: %d %s, want 400 naming the non-finite weight sum", c.what, c.w.Code, c.w.Body)
		}
	}
	if ds, _ := s.systems.Get("heavy"); ds.Version() != 1 || len(ds.Snapshot().Sec) != 1 {
		t.Fatalf("the refused admit changed heavy: version %d, %d security tasks", ds.Version(), len(ds.Snapshot().Sec))
	}

	dir := t.TempDir()
	sysDir := filepath.Join(dir, "shard-0", "overflow")
	if err := os.MkdirAll(sysDir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := `{"id":"overflow","scheme":"hydra","heuristic":"best-fit","cores":2,"rt_tasks":` + rt + `,"security_tasks":[` + heavy + `,` + twin + `]}`
	for name, data := range map[string]string{"system.json": manifest + "\n", "events.jsonl": ""} {
		if err := os.WriteFile(filepath.Join(sysDir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := New(Config{SystemsDir: dir})
	if err != nil {
		t.Fatalf("a directory holding an overflowing system must still open: %v", err)
	}
	t.Cleanup(s2.Close)
	if w := post(t, s2, "/v1/systems", createSystemBody("fine")); w.Code != http.StatusCreated {
		t.Fatalf("create fine: %d %s", w.Code, w.Body)
	}
	const want = `{"error":"encode response"}` + "\n"
	for _, c := range []struct {
		what string
		w    *httptest.ResponseRecorder
	}{
		{"get", get(t, s2, "/v1/systems/overflow")},
		{"list", get(t, s2, "/v1/systems")},
	} {
		if c.w.Code != http.StatusInternalServerError || c.w.Body.String() != want {
			t.Fatalf("%s: %d %q, want 500 %q", c.what, c.w.Code, c.w.Body.String(), want)
		}
	}
	if w := get(t, s2, "/v1/systems/fine"); w.Code != http.StatusOK {
		t.Fatalf("GET of the finite system: %d %s", w.Code, w.Body)
	}
}

// TestSystemGetAllocs pins the allocations of a GET of a system with 600
// security tasks through the full handler chain, tracing off, the test
// request and recorder included. Rendering the same document through
// encoding/json cost 65.
func TestSystemGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector runtime allocates; counts only meaningful without -race")
	}
	h := newBigSystemServer(t, 600).Handler()
	getBigSystem(t, h) // warm the pools
	getBigSystem(t, h)
	if allocs := testing.AllocsPerRun(50, func() { getBigSystem(t, h) }); allocs > 21 {
		t.Fatalf("GET of a 600-task system = %.1f allocs/op, budget 21: the document fell back to encoding/json, or tracing leaked onto the untraced path", allocs)
	}
}

// TestCrashRecoveryRendersSameDocuments recovers a system from crash
// images: its directory copied while the server runs, so the op log holds
// every acknowledged op and no final snapshot. The log runs past
// snapshot.json by a tail of four ops, and an image is taken after each: a
// security admit with a nonzero weight, at a period far above its desired
// one; a real-time admit with D < T; the removal of the task that crowds
// it; and a reallocation, which re-tunes its period to the desired one.
// Recovery restores the snapshot, whose placements carry no number text
// yet, and replays the tail. Each recovered GET body must equal the
// pre-crash one byte for byte, and after the whole tail so must the
// snapshot.json a Flush writes.
func TestCrashRecoveryRendersSameDocuments(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{SystemsDir: dir, SnapshotEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const path = "/v1/systems/crash"
	if w := post(t, s, "/v1/systems", createSystemBody("crash")); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	if w := post(t, s, path+"/tasks", `{"security_task": {"name": "big", "wcet_ms": 600, "desired_period_ms": 1000, "max_period_ms": 10000}}`); w.Code != http.StatusOK {
		t.Fatalf("admit big: %d %s", w.Code, w.Body)
	}
	ds, _ := s.systems.Get("crash")
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	tail := []func() *httptest.ResponseRecorder{
		func() *httptest.ResponseRecorder {
			return post(t, s, path+"/tasks", `{"security_task": {"name": "audit", "wcet_ms": 600.5, "desired_period_ms": 1000, "max_period_ms": 9876.5, "weight": 0.75}}`)
		},
		func() *httptest.ResponseRecorder {
			return post(t, s, path+"/tasks", `{"rt_task": {"name": "radio", "wcet_ms": 1.25, "period_ms": 50, "deadline_ms": 37.5}}`)
		},
		func() *httptest.ResponseRecorder { return del(t, s, path+"/tasks/big") },
		func() *httptest.ResponseRecorder { return post(t, s, path+"/reallocate", "") },
	}
	var recovered *syspersist.DurableSystem
	for i, op := range tail {
		if w := op(); w.Code != http.StatusOK {
			t.Fatalf("tail op %d: %d %s", i, w.Code, w.Body)
		}
		before := get(t, s, path).Body.Bytes()
		image := t.TempDir()
		if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		s2, err := New(Config{SystemsDir: image, SnapshotEvery: 1000})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s2.Close)
		if after := get(t, s2, path); after.Code != http.StatusOK || !bytes.Equal(after.Body.Bytes(), before) {
			t.Fatalf("GET after recovering a %d-op tail: %d\n%s\nbefore the crash:\n%s", i+1, after.Code, after.Body, before)
		}
		recovered, _ = s2.systems.Get("crash")
	}
	if doc := get(t, s, path).Body.String(); !strings.Contains(doc, `"weight": 0.75`) || !strings.Contains(doc, `"deadline_ms": 37.5`) {
		t.Fatalf("the final document lacks the weighted or the D < T task:\n%s", doc)
	}
	var snaps [2][]byte
	for i, d := range []*syspersist.DurableSystem{ds, recovered} {
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if snaps[i], err = os.ReadFile(filepath.Join(d.Dir(), "snapshot.json")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[1], snaps[0]) {
		t.Fatalf("snapshot.json after recovery:\n%s\nbefore the crash:\n%s", snaps[1], snaps[0])
	}
}
