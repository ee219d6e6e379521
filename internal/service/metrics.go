package service

import (
	"sync"
	"time"

	"hydra/internal/stats"
)

// latencyWindow is how many recent samples each latency series retains; the
// reported quantiles are over this sliding window, keeping the recorder's
// memory bounded no matter how long the server runs.
const latencyWindow = 4096

// LatencyStats summarizes one request-latency series in milliseconds.
type LatencyStats struct {
	Count  uint64  `json:"count"`   // total requests observed (not just the window)
	MeanMS float64 `json:"mean_ms"` // over the retained window
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// latencyRecorder keeps a bounded ring of recent latency samples. The zero
// value is ready to use.
type latencyRecorder struct {
	mu      sync.Mutex
	samples []float64 // milliseconds, ring buffer
	next    int
	count   uint64
}

func (l *latencyRecorder) add(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	if len(l.samples) < latencyWindow {
		l.samples = append(l.samples, ms)
		return
	}
	l.samples[l.next] = ms
	l.next = (l.next + 1) % latencyWindow
}

func (l *latencyRecorder) snapshot() LatencyStats {
	l.mu.Lock()
	window := append([]float64(nil), l.samples...)
	out := LatencyStats{Count: l.count}
	l.mu.Unlock()
	if len(window) == 0 {
		return out
	}
	e := stats.NewECDF(window)
	out.MeanMS = e.Mean()
	out.P50MS = e.Quantile(0.5)
	out.P90MS = e.Quantile(0.9)
	out.P99MS = e.Quantile(0.99)
	out.MaxMS = e.Max()
	return out
}
