// Package stats provides the small statistical toolkit used by the
// evaluation harness: empirical CDFs (Fig. 1's metric) and deterministic RNG
// splitting for reproducible experiments.
package stats

import (
	"encoding/json"
	"math/rand"
	"sort"
)

// ECDF is an empirical cumulative distribution function over observed
// samples, following the paper's definition under Fig. 1:
//
//	F̂(x) = (1/n) * #{ samples <= x }.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples (copied, then sorted).
func NewECDF(samples []float64) *ECDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample count.
func (e *ECDF) Len() int { return len(e.sorted) }

// Eval returns F̂(x).
func (e *ECDF) Eval(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	idx := sort.SearchFloat64s(e.sorted, x)
	for idx < len(e.sorted) && e.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the smallest sample x with F̂(x) >= p, clamping p to
// (0, 1]. It panics on an empty ECDF.
func (e *ECDF) Quantile(p float64) float64 {
	if len(e.sorted) == 0 {
		panic("stats: Quantile of empty ECDF")
	}
	if p <= 0 {
		return e.sorted[0]
	}
	if p > 1 {
		p = 1
	}
	idx := int(p*float64(len(e.sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.sorted) {
		idx = len(e.sorted) - 1
	}
	return e.sorted[idx]
}

// Mean returns the sample mean (0 for empty).
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	var s float64
	for _, v := range e.sorted {
		s += v
	}
	return s / float64(len(e.sorted))
}

// Max returns the largest sample (0 for empty).
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[len(e.sorted)-1]
}

// Series samples the ECDF at n+1 evenly spaced points over [0, hi],
// returning (x, F̂(x)) pairs — the plot-ready representation of Fig. 1.
func (e *ECDF) Series(hi float64, n int) [][2]float64 {
	if n < 1 {
		n = 1
	}
	out := make([][2]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		x := hi * float64(i) / float64(n)
		out = append(out, [2]float64{x, e.Eval(x)})
	}
	return out
}

// MarshalJSON encodes the ECDF as its sorted sample array, so results that
// embed an ECDF (Fig. 1 rows, campaign checkpoints) round-trip through JSON
// without loss.
func (e *ECDF) MarshalJSON() ([]byte, error) {
	samples := e.sorted
	if samples == nil {
		samples = []float64{}
	}
	return json.Marshal(samples)
}

// UnmarshalJSON decodes a sample array produced by MarshalJSON.
func (e *ECDF) UnmarshalJSON(data []byte) error {
	var samples []float64
	if err := json.Unmarshal(data, &samples); err != nil {
		return err
	}
	sort.Float64s(samples) // already sorted when written by MarshalJSON
	e.sorted = samples
	return nil
}

// SplitRNG derives an independent, deterministic sub-generator from a base
// seed and a stream label, so parallel experiment arms never share state.
func SplitRNG(seed int64, stream int64) *rand.Rand {
	// SplitMix64-style mixing of seed and stream.
	z := uint64(seed) ^ (uint64(stream) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}
