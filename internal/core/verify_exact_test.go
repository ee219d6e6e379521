package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/taskgen"
)

func TestVerifyExactAcceptsHydraResults(t *testing.T) {
	sec := []rts.SecurityTask{
		{Name: "a", C: 10, TDes: 100, TMax: 2000},
		{Name: "b", C: 15, TDes: 150, TMax: 3000},
	}
	in := twoCoreInput(t, 0.6, 0.5, sec)
	r := Hydra(in, HydraOptions{})
	if !r.Schedulable {
		t.Fatalf("unschedulable: %s", r.Reason)
	}
	if err := VerifyExact(in, r); err != nil {
		t.Fatalf("exact verification must accept a linear-bound-feasible result: %v", err)
	}
}

func TestVerifyExactRejectsOverload(t *testing.T) {
	sec := []rts.SecurityTask{{Name: "s", C: 50, TDes: 100, TMax: 1000}}
	in := twoCoreInput(t, 0.8, 0.8, sec)
	bad := &Result{
		Schedulable: true,
		Assignment:  []int{0},
		Periods:     []rts.Time{100}, // C=50 + RT interference cannot fit 100
	}
	if err := VerifyExact(in, bad); err == nil {
		t.Fatal("overloaded period must fail exact verification")
	}
	if err := VerifyExact(in, newInfeasible("x", "y")); err == nil {
		t.Fatal("unschedulable result must be rejected")
	}
	short := &Result{Schedulable: true, Assignment: []int{}, Periods: []rts.Time{}}
	if err := VerifyExact(in, short); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
	badCore := &Result{Schedulable: true, Assignment: []int{9}, Periods: []rts.Time{100}}
	if err := VerifyExact(in, badCore); err == nil {
		t.Fatal("invalid core must be rejected")
	}
}

// The soundness theorem behind the paper's analysis: every allocation that
// satisfies the linear bound (Eq. 5-6, what Hydra/SingleCore/Optimal emit)
// also passes the exact ceiling-based RTA, because (1+x) >= ceil(x).
func TestLinearImpliesExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		w, err := taskgen.Generate(taskgen.DefaultParams(m, float64(m)*(0.2+0.7*rng.Float64())), rng)
		if err != nil {
			return true
		}
		part, err := partition.PartitionRT(w.RT, m, partition.BestFit)
		if err != nil {
			return true
		}
		in, err := NewInput(m, w.RT, part.CoreOf, w.Sec)
		if err != nil {
			return false
		}
		for _, res := range []*Result{
			Hydra(in, HydraOptions{}),
			Optimal(in, OptimalOptions{MaxAssignments: 4096}),
		} {
			if !res.Schedulable {
				continue
			}
			if err := VerifyExact(in, res); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExactSecurityRTAKnownValues(t *testing.T) {
	// Security task C=2, period 20, against one RT interferer (1,4):
	// R = 2 + ceil(R/4)*1: R=2 -> 2+1=3 -> 2+1=3 fixpoint.
	hp := []rts.InterferingTask{{C: 1, T: 4}}
	r, ok := rts.ExactSecurityResponseTime(2, 20, hp)
	if !ok || r != 3 {
		t.Fatalf("R = %v ok=%v, want 3 true", r, ok)
	}
	// Linear bound at ts=20: 2 + (1+20/4)*1 = 8 >= exact 3.
	if b := rts.LinearSecurityResponseBound(2, 20, hp); b != 8 {
		t.Fatalf("linear bound = %v, want 8", b)
	}
	// Saturation: interferer with utilization 1 never converges.
	if _, ok := rts.ExactSecurityResponseTime(2, 1e6, []rts.InterferingTask{{C: 4, T: 4}}); ok {
		t.Fatal("saturated interference must fail")
	}
}

// TestVerifyExactReportsNonConvergence pins the divergence-contract fix in
// VerifyExact: when the exact security RTA blows its iteration budget while
// still below the period, the error must name non-convergence instead of
// claiming a proven miss with R > T (the last iterate is below T).
func TestVerifyExactReportsNonConvergence(t *testing.T) {
	// One RT interferer with utilization within 1e-4 of 1: the security
	// task's fixed point ~ (1.5+1)/1e-4 is approached in ~unit steps, far
	// beyond MaxRTAIterations, while the adapted period 20000 is never
	// exceeded along the way.
	rt := []rts.RTTask{rts.NewRTTask("creep", 1, 1.0001)}
	sec := []rts.SecurityTask{{Name: "s", C: 1.5, TDes: 10, TMax: 30000}}
	in := &Input{M: 1, RT: rt, RTPartition: []int{0}, Sec: sec}
	res := &Result{
		Schedulable: true,
		Scheme:      "test",
		Assignment:  []int{0},
		Periods:     []rts.Time{20000},
		Tightness:   []float64{10.0 / 20000},
	}
	err := VerifyExact(in, res)
	if err == nil {
		t.Fatal("non-convergent RTA must be conservatively rejected")
	}
	if !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("divergence misreported: %v", err)
	}
	if strings.Contains(err.Error(), "misses its adapted deadline") {
		t.Fatalf("divergence reported as a proven miss: %v", err)
	}
}
