// Package taskgen synthesizes random tasksets with the parameters of the
// paper's evaluation (Sec. IV-B): per-task utilizations drawn unbiasedly via
// the Randfixedsum algorithm of Emberson, Stafford and Davis (WATERS 2010)
// [23], log-uniform real-time periods in [10,1000] ms, security desired
// periods in [1000,3000] ms with Tmax = 10*Tdes, and a security utilization
// share of at most 30% of the real-time share.
package taskgen

import (
	"fmt"
	"math"
	"math/rand"
)

// RandFixedSum draws n values x_i in [lo, hi] with sum(x) == total,
// distributed uniformly over that section of the simplex (Stafford's
// randfixedsum algorithm, as used for unbiased utilization generation by
// Emberson et al.). The rng makes the draw deterministic and reproducible.
func RandFixedSum(n int, total, lo, hi float64, rng *rand.Rand) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("taskgen: RandFixedSum needs n > 0, got %d", n)
	}
	nf := float64(n)
	if !(hi > lo) || math.IsInf(nf*lo, 0) || math.IsInf(nf*hi, 0) {
		return nil, fmt.Errorf("taskgen: RandFixedSum needs hi > lo with n*lo and n*hi finite, got %d values in [%g,%g]", n, lo, hi)
	}
	if !(total >= nf*lo-1e-12 && total <= nf*hi+1e-12) { // NaN fails too
		return nil, fmt.Errorf("taskgen: sum %g unreachable with %d values in [%g,%g]", total, n, lo, hi)
	}
	if n == 1 {
		return []float64{total}, nil
	}

	// Rescale to the unit cube, u = (total - n*lo)/(hi - lo), and clamp it to
	// [k, k+1] for the simplex slice k in [0, n-1] that holds it.
	u := (total - nf*lo) / (hi - lo)
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

	// Probability table. w[i][j] follows the reference recursion scaled by
	// "big" to retain precision; t[i][j] are the transition probabilities.
	// The sampling walk below starts at column k+1 and only moves left, and
	// column j of a row depends only on columns j and j-1 of the row before,
	// so only columns 0..k+1 of w and 0..k of t are built: O(n*k), not
	// O(n^2). Each table is one flat array; a row is sliced out of it with
	// its column bound, so an index past the built columns still panics.
	const big = 1e300
	const tiny = math.SmallestNonzeroFloat64
	kc := int(k) + 1 // columns of t; w has one more
	wc := kc + 1
	w, t := make([]float64, n*wc), make([]float64, (n-1)*kc)
	w[1] = big
	for i := 2; i <= n; i++ {
		fi := float64(i)
		prev, cur := w[(i-2)*wc:(i-1)*wc], w[(i-1)*wc:i*wc]
		trow := t[(i-2)*kc : (i-1)*kc]
		for j := 1; j <= min(i, kc); j++ {
			// s1 = u - k + (j-1) and s2 = k + n - (n-i+j-1) - u: the 0-based
			// translation of the MATLAB reference's s1 = s-(k:-1:k-n+1) and
			// s2 = (k+n:-1:k+1)-s, at the entries this step reads.
			s1 := u - k + float64(j-1)
			s2 := k + nf - float64(n-i+j-1) - u
			tmp1 := prev[j] * s1 / fi
			tmp2 := prev[j-1] * s2 / fi
			cur[j] = tmp1 + tmp2
			tmp3 := cur[j] + tiny
			if s2 > s1 {
				trow[j-1] = tmp2 / tmp3
			} else {
				trow[j-1] = 1 - tmp1/tmp3
			}
		}
	}

	// Sample one point by walking the simplex decomposition.
	x := make([]float64, n)
	s := u
	j := int(k) + 1 // 1-based column cursor
	var sm, pr float64
	sm, pr = 0, 1
	for i := n - 1; i >= 1; i-- {
		e := 0.0
		if rng.Float64() <= t[(i-1)*kc : i*kc][j-1] {
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

	// Random permutation for exchangeability, then scale back to [lo, hi].
	rng.Shuffle(n, func(a, b int) { x[a], x[b] = x[b], x[a] })
	for i := range x {
		x[i] = lo + (hi-lo)*x[i]
		// Numerical safety: clamp tiny excursions from rounding.
		if x[i] < lo {
			x[i] = lo
		}
		if x[i] > hi {
			x[i] = hi
		}
	}
	return x, nil
}
