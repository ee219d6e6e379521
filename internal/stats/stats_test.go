package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2})
	if e.Len() != 3 {
		t.Fatalf("Len = %d", e.Len())
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 1.0 / 3}, {1.5, 1.0 / 3}, {2, 2.0 / 3}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := e.Eval(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := e.Mean(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if got := e.Max(); got != 3 {
		t.Fatalf("Max = %v", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.Eval(5) != 0 || e.Mean() != 0 || e.Max() != 0 || e.Len() != 0 {
		t.Fatal("empty ECDF should be all zeros")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile on empty ECDF must panic")
		}
	}()
	e.Quantile(0.5)
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	e := NewECDF(in)
	in[0] = 100
	if e.Max() != 3 {
		t.Fatal("ECDF aliases its input")
	}
}

func TestQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40})
	cases := []struct{ p, want float64 }{
		{0, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20}, {0.75, 30}, {1, 40}, {2, 40},
	}
	for _, tc := range cases {
		if got := e.Quantile(tc.p); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestSeries(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	s := e.Series(4, 4)
	if len(s) != 5 {
		t.Fatalf("series length = %d", len(s))
	}
	if s[0][0] != 0 || s[0][1] != 0 {
		t.Fatalf("series[0] = %v", s[0])
	}
	if s[4][0] != 4 || s[4][1] != 1 {
		t.Fatalf("series[4] = %v", s[4])
	}
	// Monotone non-decreasing.
	for i := 1; i < len(s); i++ {
		if s[i][1] < s[i-1][1] {
			t.Fatalf("series not monotone at %d", i)
		}
	}
	if got := e.Series(4, 0); len(got) != 2 {
		t.Fatalf("n<1 should clamp to 1: %v", got)
	}
}

func TestSplitRNGIndependence(t *testing.T) {
	a := SplitRNG(42, 0)
	b := SplitRNG(42, 1)
	c := SplitRNG(42, 0)
	sameAsC := true
	diffFromB := false
	for i := 0; i < 10; i++ {
		av, bv, cv := a.Float64(), b.Float64(), c.Float64()
		if av != cv {
			sameAsC = false
		}
		if av != bv {
			diffFromB = true
		}
	}
	if !sameAsC {
		t.Fatal("same (seed, stream) must reproduce")
	}
	if !diffFromB {
		t.Fatal("different streams must diverge")
	}
}

// Property: ECDF is a valid CDF — monotone, 0 below min, 1 at and above max,
// and Eval(Quantile(p)) >= p.
func TestECDFValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64() * 10
		}
		e := NewECDF(samples)
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		if e.Eval(sorted[0]-1) != 0 {
			return false
		}
		if e.Eval(sorted[n-1]) != 1 {
			return false
		}
		prev := -1.0
		for i := 0; i < 20; i++ {
			x := sorted[0] + (sorted[n-1]-sorted[0])*float64(i)/19
			v := e.Eval(x)
			if v < prev {
				return false
			}
			prev = v
		}
		for _, p := range []float64{0.1, 0.5, 0.9, 1} {
			if e.Eval(e.Quantile(p)) < p-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
