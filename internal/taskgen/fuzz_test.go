package taskgen

import (
	"math"
	"math/rand"
	"testing"

	"hydra/internal/rts"
)

// FuzzRandFixedSum drives the simplex sampler with arbitrary shapes. It
// checks that the draw matches the full-table reference bit for bit, that a
// total outside [0, n] (NaN included) is refused, and the draw's two
// invariants (sum and bounds) whenever it accepts the input.
func FuzzRandFixedSum(f *testing.F) {
	f.Add(int64(1), 5, 2.0)
	f.Add(int64(2), 1, 0.5)
	f.Add(int64(3), 30, 29.9)
	f.Add(int64(4), 7, 0.0)
	f.Add(int64(5), 5, math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, n int, total float64) {
		if n < 1 || n > 200 {
			return
		}
		checkMatchesFullTable(t, seed, n, total, 0, 1)
		rng := rand.New(rand.NewSource(seed))
		x, err := RandFixedSum(n, total, 0, 1, rng)
		if reachable := total >= -1e-12 && total <= float64(n)+1e-12; reachable != (err == nil) {
			t.Fatalf("RandFixedSum(%d, %v): err = %v", n, total, err)
		}
		if err != nil {
			return // out-of-range totals are correctly rejected
		}
		var sum float64
		for _, v := range x {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("value %v out of [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-total) > 1e-6*(1+math.Abs(total)) {
			t.Fatalf("sum %v != %v", sum, total)
		}
	})
}

// FuzzGenerate checks the workload generator never emits an invalid taskset.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), 2, 1.0)
	f.Add(int64(2), 8, 7.5)
	f.Fuzz(func(t *testing.T, seed int64, m int, util float64) {
		if m < 1 || m > 16 || !(util > 0) || util > float64(m) || math.IsNaN(util) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		w, err := Generate(DefaultParams(m, util), rng)
		if err != nil {
			return
		}
		if len(w.RT) == 0 {
			t.Fatal("generated workload without RT tasks")
		}
		got := rts.TotalRTUtilization(w.RT) + rts.TotalSecurityDesiredUtilization(w.Sec)
		if math.Abs(got-util) > 1e-6*(1+util) {
			t.Fatalf("utilization %v != target %v", got, util)
		}
	})
}
