package core

import (
	"strings"
	"testing"

	"hydra/internal/partition"
	"hydra/internal/rts"
)

// registryInput builds a small 2-core problem every standard scheme can solve.
func registryInput(t *testing.T) *Input {
	t.Helper()
	rt := []rts.RTTask{
		rts.NewRTTask("ctl", 5, 20),
		rts.NewRTTask("nav", 30, 100),
	}
	sec := []rts.SecurityTask{
		{Name: "tw", C: 50, TDes: 1000, TMax: 10000},
		{Name: "bro", C: 30, TDes: 500, TMax: 5000},
	}
	part, err := partition.PartitionRT(rt, 2, partition.BestFit)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInput(2, rt, part.CoreOf, sec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range []string{
		"hydra", "hydra-gp", "hydra-first-feasible", "hydra-least-loaded",
		"hydra-np", "singlecore", "opt", "opt-gp",
		"partition-first-fit", "partition-best-fit", "partition-worst-fit", "partition-next-fit",
	} {
		a, ok := Lookup(name)
		if !ok {
			t.Fatalf("standard scheme %q not registered (have: %s)", name, strings.Join(Names(), ", "))
		}
		if a.Name() != name {
			t.Fatalf("Lookup(%q) returned allocator named %q", name, a.Name())
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted/unique: %v", names)
		}
	}
	if _, ok := Lookup("no-such-scheme"); ok {
		t.Fatal("unknown scheme must not resolve")
	}
	if _, err := Resolve("hydra", "no-such-scheme"); err == nil {
		t.Fatal("Resolve must fail on unknown names")
	}
	got, err := Resolve("singlecore", "hydra")
	if err != nil || len(got) != 2 || got[0].Name() != "singlecore" || got[1].Name() != "hydra" {
		t.Fatalf("Resolve order broken: %v %v", got, err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register(NewAllocator("hydra", func(in *Input) *Result { return nil }))
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-name registration must panic")
		}
	}()
	Register(NewAllocator("", func(in *Input) *Result { return nil }))
}

// Every registered scheme must produce a verifiable result (or a reasoned
// rejection) on a small well-posed problem, through the uniform seam.
func TestRegisteredSchemesAllocateAndVerify(t *testing.T) {
	in := registryInput(t)
	for _, name := range Names() {
		a := MustLookup(name)
		res := a.Allocate(in)
		if res == nil {
			t.Fatalf("%s: Allocate returned nil", name)
		}
		if res.Scheme != name {
			t.Fatalf("%s: result names scheme %q", name, res.Scheme)
		}
		if !res.Schedulable {
			t.Fatalf("%s: rejected the easy problem: %s", name, res.Reason)
		}
		if err := Verify(in, res); err != nil {
			t.Fatalf("%s: result fails verification: %v", name, err)
		}
		if err := VerifyExact(in, res); err != nil {
			t.Fatalf("%s: result fails exact verification: %v", name, err)
		}
	}
}

// Only singlecore repartitions the real-time tasks itself.
func TestSelfPartitionsCapability(t *testing.T) {
	for _, name := range Names() {
		got := SelfPartitions(MustLookup(name))
		if want := name == "singlecore"; got != want {
			t.Fatalf("SelfPartitions(%s) = %v, want %v", name, got, want)
		}
	}
	if SelfPartitions(NewSingleCoreAllocator(partition.WorstFit)) != true {
		t.Fatal("constructed singlecore allocator must self-partition")
	}
}

// SingleCore repartitions internally; the result must carry the partition it
// solved against, and EffectiveInput must surface it.
func TestSingleCoreResultCarriesPartition(t *testing.T) {
	in := registryInput(t)
	res := MustLookup("singlecore").Allocate(in)
	if !res.Schedulable {
		t.Fatalf("singlecore rejected: %s", res.Reason)
	}
	if len(res.RTPartition) != len(in.RT) {
		t.Fatalf("RTPartition missing: %v", res.RTPartition)
	}
	eff := EffectiveInput(in, res)
	secCore := in.M - 1
	for i, c := range eff.RTPartition {
		if c == secCore {
			t.Fatalf("RT task %d still on the dedicated security core", i)
		}
	}
	for _, c := range res.Assignment {
		if c != secCore {
			t.Fatalf("security task not on dedicated core: %v", res.Assignment)
		}
	}
}

// The partition baseline never adapts periods: every admitted task runs at
// its desired period (tightness exactly 1).
func TestPartitionBaselineDesiredPeriods(t *testing.T) {
	in := registryInput(t)
	for _, h := range []partition.Heuristic{partition.FirstFit, partition.BestFit, partition.WorstFit, partition.NextFit} {
		res := PartitionBaseline(in, h)
		if !res.Schedulable {
			t.Fatalf("%v: rejected: %s", h, res.Reason)
		}
		for i, s := range in.Sec {
			if res.Periods[i] != s.TDes {
				t.Fatalf("%v: task %q period %g != TDes %g", h, s.Name, res.Periods[i], s.TDes)
			}
			if res.Tightness[i] != 1 {
				t.Fatalf("%v: task %q tightness %g != 1", h, s.Name, res.Tightness[i])
			}
		}
	}
	// A workload that only fits with period adaptation must be rejected by
	// the baseline but accepted by HYDRA — the paper's core argument.
	rt := []rts.RTTask{rts.NewRTTask("busy", 60, 100)}
	sec := []rts.SecurityTask{{Name: "s", C: 30, TDes: 60, TMax: 2000}}
	tight, err := NewInput(1, rt, []int{0}, sec)
	if err != nil {
		t.Fatal(err)
	}
	if res := PartitionBaseline(tight, partition.BestFit); res.Schedulable {
		t.Fatal("baseline must reject a workload infeasible at desired periods")
	}
	if res := Hydra(tight, HydraOptions{}); !res.Schedulable {
		t.Fatalf("HYDRA should fit it by relaxing the period: %s", res.Reason)
	}
}
