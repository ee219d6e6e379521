package main

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"hydra/internal/obs"
	"hydra/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the allocator sees; every workload
// reports all of them in an untraced run. BENCHMARK.json lists the same
// names and units with their regression bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics a traced run reports for every
// workload. Counters and spans of a layer a workload does not use read 0
// (dse-sweep runs no server, so it has no spans); every other time comes
// from a measurement taken on that workload's own inputs.
var perLayer = []metricDef{
	{"span.decode.self_us", "us"},
	{"span.canonical-key.self_us", "us"},
	{"span.cache-do.self_us", "us"},
	{"span.allocate-compute.self_us", "us"},
	{"span.write-body.self_us", "us"},
	{"span.persist-apply.self_us", "us"},
	{"http.transport_us", "us"},
	{"request.unattributed_us", "us"},
	{"server.cpu_us_per_op", "us"},
	{"client.cpu_us_per_op", "us"},
	{"engine.cpu_util", "ratio"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_op", "count"},
	{"cache.coalesced_per_op", "count"},
	{"pool.reuse_ratio", "ratio"},
	{"rta.fixed_points_per_op", "count"},
	{"rta.iters_per_fixed_point", "count"},
	{"rta.warm_start_ratio", "ratio"},
	{"rta.trial_reuses_per_op", "count"},
	{"wal.appends_per_op", "count"},
	{"snapshot.writes_per_kop", "count"},
	{"taskgen.generate_us", "us"},
	{"rts.necessary_us", "us"},
	{"partition.rt_us", "us"},
	{"core.allocate_us", "us"},
	{"core.allocate_singlecore_us", "us"},
	{"core.verify_us", "us"},
	{"tasksetio.decode_us", "us"},
	{"tasksetio.encode_us", "us"},
	{"tasksetio.canonical_us", "us"},
	{"online.admit_security_us", "us"},
	{"online.admit_rt_us", "us"},
	{"online.remove_us", "us"},
	{"online.accept_ratio", "ratio"},
	{"syspersist.overhead_us", "us"},
	{"wal.append_us", "us"},
	{"snapshot.write_us", "us"},
}

// spanLayers are the server's own span names (internal/service); a traced
// run reports span.<name>.self_us for each.
var spanLayers = []string{"decode", "canonical-key", "cache-do", "allocate-compute", "write-body", "persist-apply"}

// tailCandidates are the percentiles a latency tail may be reported at.
var tailCandidates = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// beyond is the number of the n samples that lie above the nearest-rank
// p-quantile (the rank stats.ECDF.Quantile picks).
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)-1e-9))
}

// highestTail returns the highest candidate percentile that has at least ten
// of the n samples beyond it, or 0 when even the median has fewer.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile of values
// by the method of Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), so the spreads printed here are the ones the
// benchmark contract computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// latencySummary is a latency sample's median, p90 and reportable tail.
type latencySummary struct {
	n         int
	p50, p90  float64
	tailP     float64 // highest percentile with ten samples beyond it (0 = none)
	tail      float64
	tailCount int // samples beyond the tail percentile
	mean      float64
}

func summarizeLatency(ms []float64) latencySummary {
	if len(ms) == 0 {
		return latencySummary{}
	}
	e := stats.NewECDF(ms)
	s := latencySummary{n: len(ms), p50: e.Quantile(0.5), p90: e.Quantile(0.9), mean: e.Mean()}
	if p := highestTail(len(ms)); p > 0 {
		s.tailP, s.tail, s.tailCount = p, e.Quantile(p), beyond(len(ms), p)
	}
	return s
}

// selfTimes returns each span's duration minus the part of its interval that
// its children cover; overlapping children are counted once, and a child
// reaching outside its parent only counts inside it.
func selfTimes(spans []obs.SpanJSON) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.Parent != i {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		lo, hi := s.StartUS, s.StartUS+s.DurUS
		var iv [][2]float64
		for _, c := range children[i] {
			a := max(spans[c].StartUS, lo)
			b := min(spans[c].StartUS+spans[c].DurUS, hi)
			if b > a {
				iv = append(iv, [2]float64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		covered, end := 0.0, math.Inf(-1)
		for _, v := range iv {
			if v[0] > end {
				covered += v[1] - v[0]
				end = v[1]
			} else if v[1] > end {
				covered += v[1] - end
				end = v[1]
			}
		}
		out[i] = s.DurUS - covered
	}
	return out
}

// traceSummary reconciles the server's sampled traces with the latencies the
// clients measured for the same requests.
type traceSummary struct {
	traces      int                // sampled requests matched to a client latency
	selfUS      map[string]float64 // mean self time per matched request, by span name
	unattribute float64            // mean self time of the root (route) span
	transportUS float64            // mean client latency minus trace duration
	latencyUS   float64            // mean client latency of the matched requests
}

// coverage is the share of the mean client latency explained by the named
// spans' self times plus transport.
func (t traceSummary) coverage() float64 {
	sum := t.transportUS
	for _, v := range t.selfUS {
		sum += v
	}
	return sum / t.latencyUS
}

// summarizeTraces folds the traces whose request id has a client latency
// (latencyUS returns it) into per-span mean self times.
func summarizeTraces(traces []obs.TraceJSON, latencyUS func(id string) (float64, bool)) traceSummary {
	s := traceSummary{selfUS: map[string]float64{}}
	for _, tr := range traces {
		lat, ok := latencyUS(tr.RequestID)
		if !ok || len(tr.Spans) == 0 {
			continue
		}
		s.traces++
		self := selfTimes(tr.Spans)
		s.unattribute += self[0]
		for i := 1; i < len(tr.Spans); i++ {
			s.selfUS[tr.Spans[i].Name] += self[i]
		}
		s.transportUS += lat - tr.DurMS*1000
		s.latencyUS += lat
	}
	if s.traces > 0 {
		n := float64(s.traces)
		for k := range s.selfUS {
			s.selfUS[k] /= n
		}
		s.unattribute /= n
		s.transportUS /= n
		s.latencyUS /= n
	}
	return s
}

// scrape is one parsed /metrics exposition.
type scrape map[string]float64

func parseScrape(body []byte) (scrape, error) {
	m, err := obs.ParsePrometheus(bytes.NewReader(body))
	return scrape(m), err
}

// delta returns how much the series named name (summed over its labels)
// grew from before to after.
func delta(before, after scrape, name string) float64 {
	return obs.SumSeries(after, name) - obs.SumSeries(before, name)
}

// ratio divides, reading 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// serverLayers derives the counter-based per-layer metrics from the /metrics
// growth over a window of ops operations.
func serverLayers(before, after scrape, ops int) map[string]float64 {
	d := func(name string) float64 { return delta(before, after, name) }
	n := float64(ops)
	hits, misses, coalesced := d("hydra_cache_hits_total"), d("hydra_cache_misses_total"), d("hydra_cache_coalesced_total")
	fixed := d("hydra_rta_fixed_points_total")
	return map[string]float64{
		"runtime.alloc_bytes_per_op": ratio(d("hydra_go_heap_allocs_bytes_total"), n),
		"cache.hit_ratio":            ratio(hits, hits+misses+coalesced),
		"cache.evictions_per_op":     ratio(d("hydra_cache_evictions_total"), n),
		"cache.coalesced_per_op":     ratio(coalesced, n),
		"pool.reuse_ratio":           ratio(d("hydra_pool_gets_total")-d("hydra_pool_news_total"), d("hydra_pool_gets_total")),
		"rta.fixed_points_per_op":    ratio(fixed, n),
		"rta.iters_per_fixed_point":  ratio(d("hydra_rta_iterations_sum"), fixed),
		"rta.warm_start_ratio":       ratio(d("hydra_rta_warm_starts_total"), fixed),
		"rta.trial_reuses_per_op":    ratio(d("hydra_rta_trial_reuses_total"), n),
		"wal.appends_per_op":         ratio(d("hydra_wal_append_seconds_count"), n),
		"snapshot.writes_per_kop":    ratio(d("hydra_snapshot_write_seconds_count")*1000, n),
	}
}

// fmtValue prints a metric value with all its digits.
func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// pad left-aligns s in a column of width w.
func pad(s string, w int) string {
	if len(s) >= w {
		return s + " "
	}
	return s + strings.Repeat(" ", w-len(s))
}
