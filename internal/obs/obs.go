// Package obs is the stdlib-only observability layer of the serving stack:
// a hand-rolled Prometheus-text-format metrics registry, a lightweight
// request tracer with head sampling and a bounded trace ring, and gauges
// sourced from runtime/metrics. It exists because this module deliberately
// carries no external dependencies (the hydra-vet philosophy): everything a
// standard scrape-and-profile toolchain needs — counters, gauges,
// histograms, span trees, pprof — is served from the standard library.
//
// Design constraints, in order:
//
//   - The hot path must stay allocation-free. Counters and histograms are
//     pre-registered at wiring time and updated with atomic adds only;
//     nothing on the record path locks, formats, or allocates. With tracing
//     disabled a traced code path costs a nil check.
//   - Deterministic-result packages may only feed counters (no clocks) —
//     enforced mechanically by the obsbound analyzer. Timing therefore
//     lives at the service and persistence layers; count-only sources
//     (e.g. rts RTA iteration buckets) are exported into histograms via
//     ConstHistogram snapshots.
//   - Exposition is the Prometheus text format (version 0.0.4): families in
//     registration order, HELP/TYPE comments, histogram buckets cumulative
//     with a +Inf terminal — parseable by any standard scraper, and by this
//     package's own ParsePrometheus (used by the round-trip tests and the
//     CI smoke).
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A Counter is a monotone event count, updated lock-free.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// A Gauge is a settable instantaneous value, updated lock-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Histogram counts observations into fixed buckets with an exact sum.
// Observe is lock-free and allocation-free; bucket bounds are upper bounds
// (le), with an implicit +Inf terminal bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last = +Inf overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds (the Prometheus base unit).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from one read of the
// buckets, as Prometheus' histogram_quantile does: the rank q·n (n = the
// bucket total) falls in the first non-empty bucket whose cumulative count
// reaches it, and is interpolated linearly across that bucket, from 0 below
// the first bound. A rank in +Inf reports the largest finite bound, and an
// empty histogram 0. Quantile(1) is the upper edge of the highest occupied
// bucket.
func (h *Histogram) Quantile(q float64) float64 {
	buckets := h.snapshot().Buckets
	var n uint64
	for _, c := range buckets {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank, cum, lo := q*float64(n), uint64(0), 0.0
	for i, hi := range h.bounds {
		cum += buckets[i]
		if cum > 0 && float64(cum) >= rank {
			// Measured down from hi, so a rank on the top edge is hi exactly.
			return hi - (hi-lo)*(float64(cum)-rank)/float64(buckets[i])
		}
		lo = hi
	}
	return lo
}

// snapshot reads the buckets (non-cumulative), sum and count. Concurrent
// observers may skew count vs buckets by in-flight updates; Prometheus
// scrape semantics tolerate that.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: make([]uint64, len(h.counts)),
		Sum:     h.Sum(),
		Count:   h.count.Load(),
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time histogram state: per-bucket counts
// (not cumulative, one per bound plus the +Inf overflow), the value sum, and
// the observation count. ConstHistogram sources return it on every scrape.
type HistogramSnapshot struct {
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// DefLatencyBuckets are the default request-latency bounds in seconds:
// 10 µs to 2.5 s, covering everything from a cache hit to a saturated
// cold-allocation queue.
var DefLatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5,
}

// metricKind partitions families by exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled child of a family. Exactly one of the value sources
// is set.
type series struct {
	labels    string // rendered label pairs without braces, e.g. `route="/v1/allocate"`; empty = unlabeled
	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
	constHist func() HistogramSnapshot
	bounds    []float64 // histogram bounds (hist or constHist)
}

// family is one metric name: help, type and its labeled series in
// registration order.
type family struct {
	name, help string
	kind       metricKind
	series     []*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration happens at wiring time (it locks);
// recording happens on pre-registered handles (it never locks).
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// familyFor returns (creating if needed) the family, enforcing that a name
// keeps one kind and one help string. Mismatches are programmer errors and
// panic at wiring time.
func (r *Registry) familyFor(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

func (f *family) addSeries(s *series) {
	s2 := *s
	f.series = append(f.series, &s2)
}

// Counter registers (or extends) a counter family and returns the handle for
// the given label set. labels is a pre-rendered Prometheus label body
// (`k="v",k2="v2"`), empty for an unlabeled series.
func (r *Registry) Counter(name, labels, help string) *Counter {
	f := r.familyFor(name, help, kindCounter)
	c := &Counter{}
	r.mu.Lock()
	f.addSeries(&series{labels: labels, counter: c})
	r.mu.Unlock()
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the bridge for counters owned elsewhere (result cache, job
// manager, rts analysis counters). fn must be monotone for counter semantics
// to hold.
func (r *Registry) CounterFunc(name, labels, help string, fn func() uint64) {
	f := r.familyFor(name, help, kindCounter)
	r.mu.Lock()
	f.addSeries(&series{labels: labels, counterFn: fn})
	r.mu.Unlock()
}

// Gauge registers a settable gauge series and returns its handle.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	f := r.familyFor(name, help, kindGauge)
	g := &Gauge{}
	r.mu.Lock()
	f.addSeries(&series{labels: labels, gauge: g})
	r.mu.Unlock()
	return g
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	f := r.familyFor(name, help, kindGauge)
	r.mu.Lock()
	f.addSeries(&series{labels: labels, gaugeFn: fn})
	r.mu.Unlock()
}

// Histogram registers a histogram series with the given upper bounds (a
// +Inf terminal bucket is implicit) and returns its handle.
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	f := r.familyFor(name, help, kindHistogram)
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.mu.Lock()
	f.addSeries(&series{labels: labels, hist: h, bounds: bounds})
	r.mu.Unlock()
	return h
}

// ConstHistogram registers a histogram series whose buckets are snapshotted
// from fn at scrape time — the bridge for count-only histograms owned by
// deterministic packages (e.g. the rts RTA iteration buckets), which must
// not import this package's timing surface. fn returns per-bucket counts
// (len(bounds)+1, last = overflow), a sum and a count.
func (r *Registry) ConstHistogram(name, labels, help string, bounds []float64, fn func() HistogramSnapshot) {
	f := r.familyFor(name, help, kindHistogram)
	r.mu.Lock()
	f.addSeries(&series{labels: labels, constHist: fn, bounds: bounds})
	r.mu.Unlock()
}

// formatFloat renders a value the way Prometheus clients do.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in registration order in the text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	var buf []byte
	for _, f := range fams {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.help...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind.String()...)
		buf = append(buf, '\n')
		r.mu.Lock()
		children := make([]*series, len(f.series))
		copy(children, f.series)
		r.mu.Unlock()
		for _, s := range children {
			switch {
			case s.counter != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", float64(s.counter.Value()))
			case s.counterFn != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", float64(s.counterFn()))
			case s.gauge != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", s.gauge.Value())
			case s.gaugeFn != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", s.gaugeFn())
			default:
				var snap HistogramSnapshot
				if s.hist != nil {
					snap = s.hist.snapshot()
				} else {
					snap = s.constHist()
				}
				buf = appendHistogram(buf, f.name, s.labels, s.bounds, snap)
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendSample renders one `name[suffix]{labels[,extra]} value` line.
func appendSample(buf []byte, name, suffix, labels, extra string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if labels != "" || extra != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		if labels != "" && extra != "" {
			buf = append(buf, ',')
		}
		buf = append(buf, extra...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = append(buf, formatFloat(v)...)
	buf = append(buf, '\n')
	return buf
}

// appendHistogram renders the cumulative _bucket series plus _sum and
// _count. A snapshot with fewer buckets than bounds+1 (a zero-value source)
// renders as all-zero.
func appendHistogram(buf []byte, name, labels string, bounds []float64, snap HistogramSnapshot) []byte {
	var cum uint64
	for i := 0; i <= len(bounds); i++ {
		var n uint64
		if i < len(snap.Buckets) {
			n = snap.Buckets[i]
		}
		cum += n
		le := "+Inf"
		if i < len(bounds) {
			le = formatFloat(bounds[i])
		}
		buf = appendSample(buf, name, "_bucket", labels, `le="`+le+`"`, float64(cum))
	}
	buf = appendSample(buf, name, "_sum", labels, "", snap.Sum)
	buf = appendSample(buf, name, "_count", labels, "", float64(cum))
	return buf
}
