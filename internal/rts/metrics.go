package rts

import (
	"math/bits"
	"sync/atomic"
)

// This file is the package's entire observability surface, and it is
// deliberately count-only: plain per-state counters on the hot path, flushed
// in one batch of atomic adds when a state is reset, released, or explicitly
// flushed. No clocks, no logging, no allocation — the detpath/obsbound
// analyzers hold the deterministic packages to exactly this shape, and the
// per-state staging keeps the RTA inner loop free of cross-core cache-line
// contention.

// IterationBucketBounds are the inclusive upper bounds of the RTA iteration
// histogram, the powers of two 2⁰..2⁷; a final implicit bucket catches
// everything above the last bound.
var IterationBucketBounds = [...]uint64{1, 2, 4, 8, 16, 32, 64, 128}

const numIterBuckets = len(IterationBucketBounds) + 1

// AnalysisMetrics stages one AnalysisState's instrumentation between flushes.
// Counters are plain integers because a state is single-goroutine by
// contract; they become visible via FlushMetrics.
type AnalysisMetrics struct {
	FixedPoints uint64                 // rtResponse invocations
	Iterations  uint64                 // total RTA iterations across invocations
	WarmStarts  uint64                 // invocations seeded above the cold start C
	TrialReuses uint64                 // AddRT commits that reused the TryAddRT trial
	BoundAdmits uint64                 // TryAddRT trials the hyperbolic bound admitted without a fixed point
	IterBuckets [numIterBuckets]uint64 // iterations-per-invocation histogram
}

// observe records one rtResponse invocation that took iters iterations.
func (m *AnalysisMetrics) observe(iters int, warm bool) {
	m.FixedPoints++
	m.Iterations += uint64(iters)
	if warm {
		m.WarmStarts++
	}
	// The bounds are powers of two, so iters (>= 1) falls in bucket
	// ceil(log2(iters)), capped at the overflow bucket.
	m.IterBuckets[min(bits.Len(uint(iters-1)), numIterBuckets-1)]++
}

// aggMetrics are the package-level totals the service scrapes.
var aggMetrics struct {
	fixedPoints atomic.Uint64
	iterations  atomic.Uint64
	warmStarts  atomic.Uint64
	trialReuses atomic.Uint64
	boundAdmits atomic.Uint64
	iterBuckets [numIterBuckets]atomic.Uint64
}

// FlushMetrics folds the state's staged counters into the package totals and
// zeroes the stage. Reset and ReleaseAnalysisState flush automatically;
// long-lived holders (online systems keep one state for their whole life)
// call it after each admission batch so their counts surface too.
func (st *AnalysisState) FlushMetrics() {
	m := &st.met
	if m.FixedPoints == 0 && m.TrialReuses == 0 && m.BoundAdmits == 0 {
		return
	}
	aggMetrics.fixedPoints.Add(m.FixedPoints)
	aggMetrics.iterations.Add(m.Iterations)
	aggMetrics.warmStarts.Add(m.WarmStarts)
	aggMetrics.trialReuses.Add(m.TrialReuses)
	aggMetrics.boundAdmits.Add(m.BoundAdmits)
	for i, n := range m.IterBuckets {
		if n != 0 {
			aggMetrics.iterBuckets[i].Add(n)
		}
	}
	*m = AnalysisMetrics{}
}

// AnalysisMetricsSnapshot is one consistent-enough read of the package
// totals (individual counters are exact; cross-counter skew is bounded by
// in-flight flushes, which scrapes tolerate).
type AnalysisMetricsSnapshot struct {
	FixedPoints uint64
	Iterations  uint64
	WarmStarts  uint64
	TrialReuses uint64
	BoundAdmits uint64
	IterBuckets [numIterBuckets]uint64
}

// ReadAnalysisMetrics snapshots the package-level RTA totals.
func ReadAnalysisMetrics() AnalysisMetricsSnapshot {
	var s AnalysisMetricsSnapshot
	s.FixedPoints = aggMetrics.fixedPoints.Load()
	s.Iterations = aggMetrics.iterations.Load()
	s.WarmStarts = aggMetrics.warmStarts.Load()
	s.TrialReuses = aggMetrics.trialReuses.Load()
	s.BoundAdmits = aggMetrics.boundAdmits.Load()
	for i := range s.IterBuckets {
		s.IterBuckets[i] = aggMetrics.iterBuckets[i].Load()
	}
	return s
}
