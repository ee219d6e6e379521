package obs

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records head-sampled request traces into a bounded ring.
//
// Sampling is decided once, up front (head sampling): every Nth request gets
// a *Trace, every other request gets nil, and a nil *Trace makes every span
// method a no-op nil check — the contract that keeps the steady-state
// serving path allocation-free when tracing is off (SetSample(0)).
//
// A Trace is owned by one goroutine (the request handler); the ring and the
// sampling counter are safe for concurrent use across requests.
type Tracer struct {
	every   atomic.Int64  // sample 1 in N; 0 = off
	tick    atomic.Uint64 // head-sampling counter
	ids     atomic.Uint64 // request-id sequence
	idBase  string        // per-process prefix so ids from different runs never collide
	sampled atomic.Uint64 // traces started
	dropped atomic.Uint64 // finished traces evicted from the ring unread

	mu   sync.Mutex
	ring []*Trace // completed traces; next points at the oldest slot
	next int
	n    int
}

// DefaultTraceRing bounds the completed-trace ring when the configuration
// leaves it unset.
const DefaultTraceRing = 256

// NewTracer builds a tracer whose completed-trace ring holds up to ringSize
// traces (zero or negative selects DefaultTraceRing). Sampling starts off;
// enable with SetSample.
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultTraceRing
	}
	return &Tracer{
		ring:   make([]*Trace, ringSize),
		idBase: fmt.Sprintf("%06x%04x", time.Now().UnixNano()&0xffffff, os.Getpid()&0xffff),
	}
}

// SetSample sets head sampling to one trace per n requests: 0 disables, 1
// traces everything.
func (t *Tracer) SetSample(n int) {
	if n < 0 {
		n = 0
	}
	t.every.Store(int64(n))
}

// Sample returns the current 1-in-N sampling rate (0 = off).
func (t *Tracer) Sample() int { return int(t.every.Load()) }

// Stats reports how many traces were started and how many completed traces
// were evicted from the ring before anyone read them.
func (t *Tracer) Stats() (sampled, dropped uint64) {
	return t.sampled.Load(), t.dropped.Load()
}

// Start begins a trace for one request when the head sampler selects it,
// returning nil otherwise (and always, cheaply, when sampling is off).
// requestID is the caller-provided id to honor (e.g. an X-Request-ID header);
// empty generates one. The root span is the route.
func (t *Tracer) Start(route, requestID string) *Trace {
	n := t.every.Load()
	if n <= 0 {
		return nil
	}
	if n > 1 && t.tick.Add(1)%uint64(n) != 0 {
		return nil
	}
	t.sampled.Add(1)
	if requestID == "" {
		requestID = fmt.Sprintf("%s-%06d", t.idBase, t.ids.Add(1))
	}
	tr := &Trace{
		tracer: t,
		id:     requestID,
		route:  route,
		start:  time.Now(),
		spans:  make([]span, 1, 8),
	}
	tr.spans[0] = span{name: route, parent: -1, start: tr.start}
	return tr
}

// push records a completed trace, evicting the oldest when the ring is full.
func (t *Tracer) push(tr *Trace) {
	t.mu.Lock()
	if t.ring[t.next] != nil {
		t.dropped.Add(1)
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// span is one recorded stage.
type span struct {
	name   string
	parent int32
	start  time.Time
	dur    time.Duration
}

// Trace is one sampled request's span tree under construction. All methods
// are nil-safe: a nil receiver (the unsampled case) is a no-op.
type Trace struct {
	tracer *Tracer
	id     string
	route  string
	start  time.Time
	dur    time.Duration
	spans  []span
	cur    int32 // index of the currently open span (parent for StartSpan)
}

// ID returns the trace's request id ("" for a nil trace).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// StartSpan opens a child span of the innermost open span. End it with
// Span.End; mis-nested or unclosed spans degrade to zero durations, never
// corruption.
func (tr *Trace) StartSpan(name string) Span {
	if tr == nil {
		return Span{}
	}
	idx := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{name: name, parent: tr.cur, start: time.Now()})
	tr.cur = idx
	return Span{tr: tr, idx: idx}
}

// Span is a handle on one open span.
type Span struct {
	tr  *Trace
	idx int32
}

// End closes the span, recording its duration.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	sp := &s.tr.spans[s.idx]
	sp.dur = time.Since(sp.start)
	if s.tr.cur == s.idx {
		s.tr.cur = sp.parent
	}
}

// Finish closes the root span and publishes the trace into the tracer ring.
// The trace must not be used afterwards.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.dur = time.Since(tr.start)
	tr.spans[0].dur = tr.dur
	tr.tracer.push(tr)
}

// SpanJSON is one span in the exported trace tree: its parent's index in the
// spans slice (-1 for the root), its start offset from the trace start, and
// its duration.
type SpanJSON struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// TraceJSON is one completed trace as served by /v1/debug/traces.
type TraceJSON struct {
	RequestID string     `json:"request_id"`
	Route     string     `json:"route"`
	Start     time.Time  `json:"start"`
	DurMS     float64    `json:"dur_ms"`
	Spans     []SpanJSON `json:"spans"`
}

// Snapshot returns the completed traces at least minDur long, newest first.
func (t *Tracer) Snapshot(minDur time.Duration) []TraceJSON {
	t.mu.Lock()
	traces := make([]*Trace, 0, t.n)
	for i := 0; i < t.n; i++ {
		// next-1 is the newest slot; walk backwards.
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if tr := t.ring[idx]; tr != nil {
			traces = append(traces, tr)
		}
	}
	t.mu.Unlock()
	out := make([]TraceJSON, 0, len(traces))
	for _, tr := range traces {
		if tr.dur < minDur {
			continue
		}
		tj := TraceJSON{
			RequestID: tr.id,
			Route:     tr.route,
			Start:     tr.start,
			DurMS:     float64(tr.dur) / float64(time.Millisecond),
			Spans:     make([]SpanJSON, len(tr.spans)),
		}
		for i, sp := range tr.spans {
			tj.Spans[i] = SpanJSON{
				Name:    sp.name,
				Parent:  int(sp.parent),
				StartUS: float64(sp.start.Sub(tr.start)) / float64(time.Microsecond),
				DurUS:   float64(sp.dur) / float64(time.Microsecond),
			}
		}
		out = append(out, tj)
	}
	return out
}
