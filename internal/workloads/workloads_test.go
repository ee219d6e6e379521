package workloads

import (
	"testing"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/rts"
)

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("bogus"); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestAllWorkloadsValidAndAllocatable(t *testing.T) {
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Name != name || w.Description == "" {
			t.Fatalf("%s: metadata incomplete: %+v", name, w)
		}
		if err := rts.ValidateAll(w.RT, w.Sec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.RT) == 0 || len(w.Sec) == 0 {
			t.Fatalf("%s: empty workload", name)
		}
		// Every registered workload must be HYDRA-allocatable on 2 and 4
		// cores — the registry exists to feed demos that should not fail.
		for _, m := range []int{2, 4} {
			part, err := partition.PartitionRT(w.RT, m, partition.BestFit)
			if err != nil {
				t.Fatalf("%s: RT partition on %d cores: %v", name, m, err)
			}
			in, err := core.NewInput(m, w.RT, part.CoreOf, w.Sec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r := core.Hydra(in, core.HydraOptions{})
			if !r.Schedulable {
				t.Fatalf("%s on %d cores: %s", name, m, r.Reason)
			}
			if err := core.Verify(in, r); err != nil {
				t.Fatalf("%s on %d cores: %v", name, m, err)
			}
			if err := core.VerifyExact(in, r); err != nil {
				t.Fatalf("%s on %d cores (exact): %v", name, m, err)
			}
		}
	}
}

func TestWorkloadsSingleCoreFeasibleAtTwoCores(t *testing.T) {
	// The SingleCore baseline needs the RT side to fit M-1 cores; the
	// registry workloads are designed to allow the comparison at M=2.
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		r := core.SingleCore(2, w.RT, w.Sec, partition.BestFit)
		if !r.Schedulable {
			t.Fatalf("%s: SingleCore at 2 cores: %s", name, r.Reason)
		}
	}
}

func TestWorkloadUtilizationProfilesDiffer(t *testing.T) {
	// The registry's value is diversity: the three workloads must not share
	// near-identical RT utilization.
	var utils []float64
	for _, name := range Names() {
		w, _ := Get(name)
		utils = append(utils, rts.TotalRTUtilization(w.RT))
	}
	for i := 0; i < len(utils); i++ {
		for j := i + 1; j < len(utils); j++ {
			if diff := utils[i] - utils[j]; diff < 0.02 && diff > -0.02 {
				t.Fatalf("workloads %d and %d have near-identical utilization %v", i, j, utils)
			}
		}
	}
}
