package taskgen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/rts"
)

func TestRandFixedSumArgValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RandFixedSum(0, 1, 0, 1, rng); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := RandFixedSum(3, 1, 1, 0, rng); err == nil {
		t.Fatal("hi <= lo must error")
	}
	if _, err := RandFixedSum(3, 5, 0, 1, rng); err == nil {
		t.Fatal("sum > n*hi must error")
	}
	if _, err := RandFixedSum(3, -1, 0, 1, rng); err == nil {
		t.Fatal("sum < n*lo must error")
	}
	if _, err := RandFixedSum(5, math.NaN(), 0.001, 1, rng); err == nil {
		t.Fatal("NaN sum must error")
	}
	if _, err := RandFixedSum(3, 1, math.Inf(-1), 1, rng); err == nil {
		t.Fatal("infinite lo must error")
	}
	if _, err := RandFixedSum(3, 1, 0, math.Inf(1), rng); err == nil {
		t.Fatal("infinite hi must error")
	}
	if _, err := RandFixedSum(3, 0, -1e308, 1e308, rng); err == nil {
		t.Fatal("infinite n*lo and n*hi must error")
	}
}

func TestRandFixedSumSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, err := RandFixedSum(1, 0.7, 0, 1, rng)
	if err != nil || len(x) != 1 || x[0] != 0.7 {
		t.Fatalf("x=%v err=%v", x, err)
	}
}

func TestRandFixedSumSumAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		lo := 0.0
		hi := 1.0
		total := hi * float64(n) * rng.Float64()
		x, err := RandFixedSum(n, total, lo, hi, rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sum float64
		for _, v := range x {
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("trial %d: value %v out of [%v,%v]", trial, v, lo, hi)
			}
			sum += v
		}
		if math.Abs(sum-total) > 1e-9*(1+total) {
			t.Fatalf("trial %d: sum %v != %v", trial, sum, total)
		}
	}
}

func TestRandFixedSumNonUnitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, err := RandFixedSum(5, 2.5, 0.1, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range x {
		if v < 0.1-1e-12 || v > 0.9+1e-12 {
			t.Fatalf("value %v out of [0.1,0.9]", v)
		}
		sum += v
	}
	if math.Abs(sum-2.5) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestRandFixedSumDeterministic(t *testing.T) {
	a, _ := RandFixedSum(6, 2, 0, 1, rand.New(rand.NewSource(99)))
	b, _ := RandFixedSum(6, 2, 0, 1, rand.New(rand.NewSource(99)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Unbiasedness: each coordinate's empirical mean must approach total/n.
// This is the property that distinguishes Randfixedsum from naive scaling.
func TestRandFixedSumUnbiased(t *testing.T) {
	const (
		n      = 5
		total  = 2.0
		rounds = 4000
	)
	rng := rand.New(rand.NewSource(123))
	means := make([]float64, n)
	for r := 0; r < rounds; r++ {
		x, err := RandFixedSum(n, total, 0, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range x {
			means[i] += v
		}
	}
	want := total / n
	for i := range means {
		means[i] /= rounds
		if math.Abs(means[i]-want) > 0.02 {
			t.Fatalf("coordinate %d mean %v, want ~%v", i, means[i], want)
		}
	}
}

// Property: sums hold across the whole admissible (n, total) space.
func TestRandFixedSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		total := float64(n) * rng.Float64()
		x, err := RandFixedSum(n, total, 0, 1, rng)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range x {
			if v < -1e-9 || v > 1+1e-9 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-total) <= 1e-8*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(4, 2.0)
	if p.M != 4 || p.TotalUtil != 2.0 {
		t.Fatalf("params = %+v", p)
	}
	if p.TMaxFactor != 10 || p.SecUtilFraction != 0.3 {
		t.Fatalf("paper constants wrong: %+v", p)
	}
	if p.RTPeriodMin != 10 || p.RTPeriodMax != 1000 {
		t.Fatalf("RT period range wrong: %+v", p)
	}
	if p.SecTDesMin != 1000 || p.SecTDesMax != 3000 {
		t.Fatalf("security period range wrong: %+v", p)
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := Generate(Params{M: 0, TotalUtil: 1}, rng); err == nil {
		t.Fatal("M=0 must error")
	}
	if _, err := Generate(Params{M: 2, TotalUtil: 0}, rng); err == nil {
		t.Fatal("zero utilization must error")
	}
	// Unsplittable: too much utilization for a single RT task.
	p := DefaultParams(1, 4)
	p.NR, p.NS = 2, 2
	if _, err := Generate(p, rng); err == nil {
		t.Fatal("over-dense utilization must error")
	}
	p = DefaultParams(2, 1)
	p.SecUtilFraction = math.NaN()
	if _, err := Generate(p, rng); err == nil {
		t.Fatal("NaN security share must error")
	}
}

func TestGenerateRespectsPaperRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		m := []int{2, 4, 8}[rng.Intn(3)]
		util := (0.1 + 0.7*rng.Float64()) * float64(m)
		w, err := Generate(DefaultParams(m, util), rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(w.RT) < 3*m || len(w.RT) > 10*m {
			t.Fatalf("NR=%d out of [3M,10M] for M=%d", len(w.RT), m)
		}
		if len(w.Sec) < 2*m || len(w.Sec) > 5*m {
			t.Fatalf("NS=%d out of [2M,5M] for M=%d", len(w.Sec), m)
		}
		for _, task := range w.RT {
			if task.T < 10-1e-9 || task.T > 1000+1e-9 {
				t.Fatalf("RT period %v out of [10,1000]", task.T)
			}
		}
		for _, s := range w.Sec {
			if s.TDes < 1000-1e-9 || s.TDes > 3000+1e-9 {
				t.Fatalf("TDes %v out of [1000,3000]", s.TDes)
			}
			if math.Abs(s.TMax-10*s.TDes) > 1e-9 {
				t.Fatalf("TMax %v != 10*TDes %v", s.TMax, s.TDes)
			}
		}
		// Utilization split: U_S ≈ 0.3 * U_R and total matches.
		uR := rts.TotalRTUtilization(w.RT)
		uS := rts.TotalSecurityDesiredUtilization(w.Sec)
		if math.Abs(uR+uS-util) > 1e-6*(1+util) {
			t.Fatalf("total util %v != target %v", uR+uS, util)
		}
		if math.Abs(uS-0.3*uR) > 1e-6*(1+uR) {
			t.Fatalf("security util %v != 0.3 * RT util %v", uS, uR)
		}
	}
}

func TestGenerateFixedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := DefaultParams(2, 1.0)
	p.NR, p.NS = 7, 4
	w, err := Generate(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.RT) != 7 || len(w.Sec) != 4 {
		t.Fatalf("counts = %d,%d want 7,4", len(w.RT), len(w.Sec))
	}
	if rts.TotalRTUtilization(w.RT)+rts.TotalSecurityDesiredUtilization(w.Sec) <= 0 {
		t.Fatal("total utilization must be positive")
	}
}

func TestLogUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 1000; i++ {
		v := logUniform(rng, 10, 1000)
		if v < 10 || v > 1000 {
			t.Fatalf("logUniform out of range: %v", v)
		}
	}
	if got := logUniform(rng, 5, 5); got != 5 {
		t.Fatalf("degenerate range: %v", got)
	}
	// Log-uniformity: median should be near geometric mean (100), far from
	// the arithmetic midpoint (505).
	var below int
	const rounds = 4000
	for i := 0; i < rounds; i++ {
		if logUniform(rng, 10, 1000) < 100 {
			below++
		}
	}
	frac := float64(below) / rounds
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("median check failed: frac below geometric mean = %v", frac)
	}
}

func TestRandIntIn(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		v := randIntIn(rng, 3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("randIntIn out of range: %d", v)
		}
	}
	if got := randIntIn(rng, 5, 5); got != 5 {
		t.Fatalf("degenerate = %d", got)
	}
	if got := randIntIn(rng, 5, 2); got != 5 {
		t.Fatalf("inverted = %d", got)
	}
}
