package taskgen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randFixedSumFullTable is the O(n^2) form of RandFixedSum: it fills every
// column of the probability table, where RandFixedSum fills only the columns
// its sampling walk reads. It is the reference that pins the two to the same
// bits and the same draws from rng.
func randFixedSumFullTable(n int, total, lo, hi float64, rng *rand.Rand) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("n = %d", n)
	}
	if !(hi > lo) || math.IsInf(float64(n)*lo, 0) || math.IsInf(float64(n)*hi, 0) {
		return nil, fmt.Errorf("bounds [%g,%g]", lo, hi)
	}
	if !(total >= float64(n)*lo-1e-12 && total <= float64(n)*hi+1e-12) {
		return nil, fmt.Errorf("sum %g", total)
	}
	if n == 1 {
		return []float64{total}, nil
	}
	u := (total - float64(n)*lo) / (hi - lo)
	nf := float64(n)
	if u < 0 {
		u = 0
	}
	if u > nf {
		u = nf
	}
	k := math.Floor(u)
	if k > nf-1 {
		k = nf - 1
	}
	if k < 0 {
		k = 0
	}
	if u < k {
		u = k
	}
	if u > k+1 {
		u = k + 1
	}
	s1 := make([]float64, n)
	s2 := make([]float64, n)
	for i := 0; i < n; i++ {
		s1[i] = u - k + float64(i)
		s2[i] = k + nf - float64(i) - u
	}
	const big = 1e300
	const tiny = math.SmallestNonzeroFloat64
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n+1)
	}
	w[0][1] = big
	t := make([][]float64, n-1)
	for i := range t {
		t[i] = make([]float64, n)
	}
	for i := 2; i <= n; i++ {
		fi := float64(i)
		for j := 1; j <= i; j++ {
			tmp1 := w[i-2][j] * s1[j-1] / fi
			tmp2 := w[i-2][j-1] * s2[n-i+j-1] / fi
			w[i-1][j] = tmp1 + tmp2
			tmp3 := w[i-1][j] + tiny
			if s2[n-i+j-1] > s1[j-1] {
				t[i-2][j-1] = tmp2 / tmp3
			} else {
				t[i-2][j-1] = 1 - tmp1/tmp3
			}
		}
	}
	x := make([]float64, n)
	s := u
	j := int(k) + 1
	var sm, pr float64
	sm, pr = 0, 1
	for i := n - 1; i >= 1; i-- {
		e := 0.0
		if rng.Float64() <= t[i-1][j-1] {
			e = 1
		}
		sx := math.Pow(rng.Float64(), 1/float64(i))
		sm += (1 - sx) * pr * s / float64(i+1)
		pr *= sx
		x[n-i-1] = sm + pr*e
		s -= e
		j -= int(e)
	}
	x[n-1] = sm + pr*s
	rng.Shuffle(n, func(a, b int) { x[a], x[b] = x[b], x[a] })
	for i := range x {
		x[i] = lo + (hi-lo)*x[i]
		if x[i] < lo {
			x[i] = lo
		}
		if x[i] > hi {
			x[i] = hi
		}
	}
	return x, nil
}

// checkMatchesFullTable draws once from RandFixedSum and once from the
// full-table reference on two generators with the same seed. The error
// verdicts, the bits of every value and the generators' next draw must all
// agree.
func checkMatchesFullTable(t *testing.T, seed int64, n int, total, lo, hi float64) {
	t.Helper()
	ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got, gotErr := RandFixedSum(n, total, lo, hi, ra)
	want, wantErr := randFixedSumFullTable(n, total, lo, hi, rb)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("RandFixedSum(%d, %v, %v, %v) seed %d: err %v, reference err %v", n, total, lo, hi, seed, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("RandFixedSum(%d, %v, %v, %v) seed %d: %d values, reference %d", n, total, lo, hi, seed, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("RandFixedSum(%d, %v, %v, %v) seed %d: x[%d] = %v, reference %v", n, total, lo, hi, seed, i, got[i], want[i])
		}
	}
	if a, b := ra.Int63(), rb.Int63(); a != b {
		t.Fatalf("RandFixedSum(%d, %v, %v, %v) seed %d: consumed a different number of draws than the reference", n, total, lo, hi, seed)
	}
}

// TestRandFixedSumMatchesFullTable pins RandFixedSum, which builds only the
// table columns its walk reads, to the full O(n^2) table bit for bit.
func TestRandFixedSumMatchesFullTable(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for draw := 0; draw < 20000; draw++ {
		n := 1 + rng.Intn(100)
		nf := float64(n)
		lo, hi := 0.0, 1.0
		var total float64
		switch draw % 5 {
		case 0: // anywhere in the reachable range
			total = nf * rng.Float64()
		case 1: // integer totals, where u = k
			total = float64(rng.Intn(n + 1))
		case 2: // within 0.01 of n*lo, on either side
			total = 0.01 * (2*rng.Float64() - 1)
		case 3: // within 0.01 of n*hi, on either side
			total = nf + 0.01*(2*rng.Float64()-1)
		case 4: // a non-unit [lo, hi]
			lo = 0.5 * rng.Float64()
			hi = lo + 0.01 + 1.5*rng.Float64()
			total = nf * (lo + (hi-lo)*rng.Float64())
		}
		checkMatchesFullTable(t, rng.Int63(), n, total, lo, hi)
	}
	for _, total := range []float64{math.Copysign(0, -1), -1e-12, 5 + 1e-12, math.NaN(), math.Inf(1)} {
		checkMatchesFullTable(t, 1, 5, total, 0, 1)
	}
}
