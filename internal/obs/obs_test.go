package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", `route="/a"`, "Requests.")
	c2 := r.Counter("test_requests_total", `route="/b"`, "Requests.")
	g := r.Gauge("test_inflight", "", "In-flight requests.")
	r.CounterFunc("test_fn_total", "", "From a closure.", func() uint64 { return 7 })
	r.GaugeFunc("test_gfn", "", "Gauge closure.", func() float64 { return 2.5 })

	c.Inc()
	c.Add(2)
	c2.Inc()
	g.Set(4)
	g.Add(-1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# HELP test_requests_total Requests.\n",
		"# TYPE test_requests_total counter\n",
		"test_requests_total{route=\"/a\"} 3\n",
		"test_requests_total{route=\"/b\"} 1\n",
		"# TYPE test_inflight gauge\n",
		"test_inflight 3\n",
		"test_fn_total 7\n",
		"test_gfn 2.5\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %g, want 56.05", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# TYPE test_lat_seconds histogram\n",
		"test_lat_seconds_bucket{le=\"0.1\"} 1\n",
		"test_lat_seconds_bucket{le=\"1\"} 3\n",
		"test_lat_seconds_bucket{le=\"10\"} 4\n",
		"test_lat_seconds_bucket{le=\"+Inf\"} 5\n",
		"test_lat_seconds_sum 56.05\n",
		"test_lat_seconds_count 5\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
}

func TestConstHistogram(t *testing.T) {
	r := NewRegistry()
	r.ConstHistogram("test_iters", "", "Iterations.", []float64{1, 4},
		func() HistogramSnapshot {
			return HistogramSnapshot{Buckets: []uint64{2, 3, 1}, Sum: 17, Count: 6}
		})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"test_iters_bucket{le=\"1\"} 2\n",
		"test_iters_bucket{le=\"4\"} 5\n",
		"test_iters_bucket{le=\"+Inf\"} 6\n",
		"test_iters_sum 17\n",
		"test_iters_count 6\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x", "", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("registering test_x as a gauge after a counter did not panic")
		}
	}()
	r.Gauge("test_x", "", "X.")
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", `stripe="0"`, "T.")
	b := r.Counter("test_total", `stripe="1"`, "T.")
	h := r.Histogram("test_h", "", "H.", []float64{1})
	a.Add(3)
	b.Add(4)
	h.Observe(0.5)
	h.Observe(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := series[`test_total{stripe="0"}`]; got != 3 {
		t.Errorf("stripe 0 = %g, want 3", got)
	}
	if got := SumSeries(series, "test_total"); got != 7 {
		t.Errorf("sum = %g, want 7", got)
	}
	if got := series[`test_h_bucket{le="+Inf"}`]; got != 2 {
		t.Errorf("+Inf bucket = %g, want 2", got)
	}
	if got := series["test_h_count"]; got != 2 {
		t.Errorf("count = %g, want 2", got)
	}
}

func TestParseRejectsDuplicates(t *testing.T) {
	_, err := ParsePrometheus(strings.NewReader("a 1\na 2\n"))
	if err == nil {
		t.Fatal("duplicate series parsed without error")
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines and
// checks nothing is lost: bucket sums, count and value sum all agree.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc", "", "C.", []float64{1, 2, 3})
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%4) + 0.5)
			}
		}(g)
	}
	wg.Wait()
	want := uint64(goroutines * per)
	if h.Count() != want {
		t.Fatalf("count = %d, want %d", h.Count(), want)
	}
	snap := h.snapshot()
	var total uint64
	for _, b := range snap.Buckets {
		total += b
	}
	if total != want {
		t.Fatalf("bucket sum = %d, want %d", total, want)
	}
	wantSum := float64(goroutines) * per / 4 * (0.5 + 1.5 + 2.5 + 3.5)
	if math.Abs(snap.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %g, want %g", snap.Sum, wantSum)
	}
}

func TestRuntimeMetricsRegister(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if series["hydra_go_goroutines"] < 1 {
		t.Errorf("hydra_go_goroutines = %g, want >= 1", series["hydra_go_goroutines"])
	}
	if series["hydra_go_heap_objects_bytes"] <= 0 {
		t.Errorf("hydra_go_heap_objects_bytes = %g, want > 0", series["hydra_go_heap_objects_bytes"])
	}
}

// TestHistogramQuantile pins Quantile to histogram_quantile's answers on
// bounds {1, 2, 4, 8}, exactly: ranks interpolate linearly from 0 below the
// first bound, skip empty buckets, land on bucket edges without rounding, and
// a rank in +Inf reports the largest finite bound.
func TestHistogramQuantile(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		q       []float64
		want    []float64
	}{
		{"empty", nil, []float64{0.5, 1}, []float64{0, 0}},
		{"single bucket", []float64{0.5, 0.5, 0.5, 0.5}, []float64{0.25, 0.5, 1}, []float64{0.25, 0.5, 1}},
		{"rank on a bucket edge", []float64{0.5, 0.5, 1.5, 1.5}, []float64{0.5, 0.75, 1}, []float64{1, 1.5, 2}},
		{"empty middle buckets", []float64{0.5, 6}, []float64{0.5, 0.75, 1}, []float64{1, 6, 8}},
		{"rank in +Inf", []float64{0.5, 100}, []float64{0.5, 0.9, 1}, []float64{1, 8, 8}},
		{"q = 0 is the lowest occupied bucket's lower edge", []float64{3}, []float64{0, 1}, []float64{2, 4}},
	}
	for _, c := range cases {
		h := NewRegistry().Histogram("test_q", "", "Q.", []float64{1, 2, 4, 8})
		for _, v := range c.samples {
			h.Observe(v)
		}
		for i, q := range c.q {
			if got := h.Quantile(q); got != c.want[i] {
				t.Errorf("%s: Quantile(%g) = %g, want %g", c.name, q, got, c.want[i])
			}
		}
	}
}
