package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hydra/internal/obs"
)

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {109, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := highestTail(tc.n); p > 0 && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestSummarizeLatencyReportsTail(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	s := summarizeLatency(ms)
	if s.p50 != 500 || s.p90 != 900 || s.tailP != 0.99 || s.tail != 990 || s.tailCount != 10 {
		t.Fatalf("got %+v", s)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, since the benchmark contract measures spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 5, 7.5},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // the exclusive method extrapolates
	} {
		q1, m, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []obs.SpanJSON{
		{Name: "route", Parent: -1, StartUS: 0, DurUS: 100},
		{Name: "decode", Parent: 0, StartUS: 10, DurUS: 20},   // [10, 30]
		{Name: "cache-do", Parent: 0, StartUS: 25, DurUS: 50}, // [25, 75], overlaps decode
		{Name: "compute", Parent: 2, StartUS: 30, DurUS: 40},  // [30, 70] inside cache-do
		{Name: "write", Parent: 0, StartUS: 90, DurUS: 20},    // [90, 110], past the root's end
		{Name: "inner", Parent: 3, StartUS: 65, DurUS: 10},    // [65, 75], past compute's end
	}
	want := []float64{100 - (75 - 10) - 10, 20, 50 - 40, 40 - 5, 20, 10}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSummarizeTracesMatchesClientLatency(t *testing.T) {
	traces := []obs.TraceJSON{
		{RequestID: "b0-0", DurMS: 0.1, Spans: []obs.SpanJSON{
			{Name: "POST /v1/allocate", Parent: -1, DurUS: 100},
			{Name: "decode", Parent: 0, StartUS: 5, DurUS: 30},
			{Name: "cache-do", Parent: 0, StartUS: 40, DurUS: 50},
		}},
		{RequestID: "someone-else", DurMS: 1, Spans: []obs.SpanJSON{{Name: "POST /v1/allocate", Parent: -1, DurUS: 1000}}},
	}
	s := summarizeTraces(traces, func(id string) (float64, bool) { return 130, id == "b0-0" })
	if s.traces != 1 || s.selfUS["decode"] != 30 || s.selfUS["cache-do"] != 50 || s.unattribute != 20 {
		t.Fatalf("got %+v", s)
	}
	if math.Abs(s.transportUS-30) > 1e-9 || math.Abs(s.coverage()-110.0/130) > 1e-9 {
		t.Fatalf("transport %v, coverage %v", s.transportUS, s.coverage())
	}
}

func TestServerLayersFromMetricsDelta(t *testing.T) {
	before, err := parseScrape([]byte(`# TYPE hydra_cache_hits_total counter
hydra_cache_hits_total{stripe="0"} 10
hydra_cache_hits_total{stripe="1"} 5
hydra_cache_misses_total{stripe="0"} 5
hydra_cache_evictions_total{stripe="0"} 0
hydra_pool_gets_total{pool="resp"} 100
hydra_pool_news_total{pool="resp"} 4
hydra_rta_fixed_points_total 100
hydra_rta_iterations_sum 300
hydra_go_heap_allocs_bytes_total 1000
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape([]byte(`hydra_cache_hits_total{stripe="0"} 70
hydra_cache_hits_total{stripe="1"} 25
hydra_cache_misses_total{stripe="0"} 25
hydra_cache_evictions_total{stripe="0"} 10
hydra_pool_gets_total{pool="resp"} 300
hydra_pool_news_total{pool="resp"} 4
hydra_rta_fixed_points_total 300
hydra_rta_iterations_sum 1100
hydra_go_heap_allocs_bytes_total 101000
`))
	if err != nil {
		t.Fatal(err)
	}
	got := serverLayers(before, after, 100)
	for name, want := range map[string]float64{
		"cache.hit_ratio":            0.8, // 80 hits of 100 lookups
		"cache.evictions_per_op":     0.1,
		"pool.reuse_ratio":           1,
		"rta.fixed_points_per_op":    2,
		"rta.iters_per_fixed_point":  4,
		"runtime.alloc_bytes_per_op": 1000,
		"wal.appends_per_op":         0, // absent series read as no growth
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// BENCHMARK.json and the metrics this program prints must agree: the same
// workloads, and the same metric names and units.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json at the repository root: %v", err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, side := range []struct {
		spec []metric
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(side.spec) != len(side.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(side.spec), len(side.defs))
		}
		for i, m := range side.spec {
			if m.Name != side.defs[i].name || m.Unit != side.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, side.defs[i].name, side.defs[i].unit)
			}
		}
	}
}
