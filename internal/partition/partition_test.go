package partition

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/rts"
)

func mkTasks(utils []float64) []rts.RTTask {
	tasks := make([]rts.RTTask, len(utils))
	for i, u := range utils {
		period := 100.0
		tasks[i] = rts.NewRTTask("t", u*period, period)
	}
	return tasks
}

func TestHeuristicString(t *testing.T) {
	for h, want := range map[Heuristic]string{
		FirstFit: "first-fit", BestFit: "best-fit",
		WorstFit: "worst-fit", NextFit: "next-fit",
		Heuristic(9): "heuristic(9)",
	} {
		if h.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(h), h.String(), want)
		}
	}
}

func TestPartitionValidatesInput(t *testing.T) {
	if _, err := PartitionRT(mkTasks([]float64{0.5}), 0, BestFit); err == nil {
		t.Fatal("m=0 must error")
	}
	bad := []rts.RTTask{{Name: "bad", C: -1, T: 10, D: 10}}
	if _, err := PartitionRT(bad, 2, BestFit); err == nil {
		t.Fatal("invalid task must error")
	}
	if _, err := PartitionRT(mkTasks([]float64{0.5}), 1, Heuristic(42)); err == nil {
		t.Fatal("unknown heuristic must error")
	}
}

func TestAllHeuristicsPartitionLightLoad(t *testing.T) {
	tasks := mkTasks([]float64{0.3, 0.3, 0.3, 0.3})
	for _, h := range []Heuristic{FirstFit, BestFit, WorstFit, NextFit} {
		p, err := PartitionRT(tasks, 2, h)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if err := p.Validate(tasks); err != nil {
			t.Fatalf("%v: invalid partition: %v", h, err)
		}
	}
}

func TestBestFitPacksTightly(t *testing.T) {
	// Harmonic single-period tasks: RTA admits up to U=1 per core. Best-fit
	// with utilizations 0.6, 0.6, 0.4, 0.4 on 2 cores must pair 0.6+0.4.
	tasks := mkTasks([]float64{0.6, 0.6, 0.4, 0.4})
	p, err := PartitionRT(tasks, 2, BestFit)
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, p.M)
	for c, core := range p.Cores(tasks) {
		u[c] = rts.TotalRTUtilization(core)
		if u[c] > 1.0+1e-9 {
			t.Fatalf("core %d overloaded: %v", c, u[c])
		}
	}
	if u[0] < 0.99 || u[1] < 0.99 {
		t.Fatalf("best-fit should fill both cores to 1.0, got %v", u)
	}
}

func TestWorstFitBalances(t *testing.T) {
	tasks := mkTasks([]float64{0.4, 0.4})
	p, err := PartitionRT(tasks, 2, WorstFit)
	if err != nil {
		t.Fatal(err)
	}
	if p.CoreOf[0] == p.CoreOf[1] {
		t.Fatal("worst-fit should spread two tasks across two cores")
	}
}

func TestFirstFitPrefersLowIndex(t *testing.T) {
	tasks := mkTasks([]float64{0.4, 0.4})
	p, err := PartitionRT(tasks, 4, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if p.CoreOf[0] != 0 || p.CoreOf[1] != 0 {
		t.Fatalf("first-fit should stack on core 0, got %v", p.CoreOf)
	}
}

func TestNextFitAdvances(t *testing.T) {
	tasks := mkTasks([]float64{0.9, 0.9, 0.9})
	p, err := PartitionRT(tasks, 3, NextFit)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range p.CoreOf {
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Fatalf("next-fit should use 3 cores for 3 x 0.9, got %v", p.CoreOf)
	}
}

func TestUnschedulableOverload(t *testing.T) {
	tasks := mkTasks([]float64{0.9, 0.9, 0.9})
	_, err := PartitionRT(tasks, 2, BestFit)
	if !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("err = %v, want ErrUnschedulable", err)
	}
}

func TestCoresAndLoads(t *testing.T) {
	tasks := []rts.RTTask{
		rts.NewRTTask("a", 20, 100),
		rts.NewRTTask("b", 30, 100),
	}
	p := &Partition{M: 2, CoreOf: []int{0, 1}}
	cores := p.Cores(tasks)
	if len(cores[0]) != 1 || cores[0][0].Name != "a" || len(cores[1]) != 1 {
		t.Fatalf("Cores = %+v", cores)
	}
	loads := make([]rts.CoreLoad, p.M)
	for c, core := range cores {
		for _, task := range core {
			loads[c].AddRT(task)
		}
	}
	if loads[0].SumC != 20 || loads[1].SumC != 30 {
		t.Fatalf("Loads = %+v", loads)
	}
	if loads[0].SumU != 0.2 || loads[1].SumU != 0.3 {
		t.Fatalf("Loads U = %+v", loads)
	}
}

func TestValidateCatchesBadPartition(t *testing.T) {
	tasks := mkTasks([]float64{0.9, 0.9})
	p := &Partition{M: 2, CoreOf: []int{0, 0}} // both on one core: overload
	if err := p.Validate(tasks); err == nil {
		t.Fatal("overloaded core must fail validation")
	}
	p2 := &Partition{M: 2, CoreOf: []int{0}}
	if err := p2.Validate(tasks); err == nil {
		t.Fatal("length mismatch must fail validation")
	}
	p3 := &Partition{M: 2, CoreOf: []int{0, 5}}
	if err := p3.Validate(tasks); err == nil {
		t.Fatal("out-of-range core must fail validation")
	}
}

// Property: whenever PartitionRT succeeds, the result passes Validate
// (every core schedulable, all tasks assigned), for all heuristics.
func TestPartitionSoundProperty(t *testing.T) {
	heuristics := []Heuristic{FirstFit, BestFit, WorstFit, NextFit}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(4)
		n := 1 + r.Intn(4*m)
		tasks := make([]rts.RTTask, n)
		for i := range tasks {
			period := 10 + 990*r.Float64()
			u := 0.05 + 0.6*r.Float64()
			tasks[i] = rts.NewRTTask("t", u*period, period)
		}
		h := heuristics[r.Intn(len(heuristics))]
		p, err := PartitionRT(tasks, m, h)
		if err != nil {
			return errors.Is(err, ErrUnschedulable)
		}
		return p.Validate(tasks) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: first-fit succeeds whenever best-fit succeeds on harmonic
// workloads is NOT guaranteed in general; instead check the weaker sound
// property that more cores never hurt: if a heuristic packs on m cores it
// also packs on m+1 cores.
func TestMoreCoresNeverHurtProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(3)
		n := 1 + r.Intn(3*m)
		tasks := make([]rts.RTTask, n)
		for i := range tasks {
			period := 10 + 990*r.Float64()
			u := 0.05 + 0.6*r.Float64()
			tasks[i] = rts.NewRTTask("t", u*period, period)
		}
		_, err := PartitionRT(tasks, m, FirstFit)
		if err != nil {
			return true // nothing to compare
		}
		_, err2 := PartitionRT(tasks, m+1, FirstFit)
		return err2 == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// fullScanChooseCore is the reference ChooseCore must agree with: the fit
// heuristics call admits on every core.
func fullScanChooseCore(h Heuristic, m int, admits func(int) bool, util func(int) float64, cursor *int) int {
	chosen := -1
	switch h {
	case FirstFit:
		for c := 0; c < m; c++ {
			if admits(c) {
				return c
			}
		}
	case BestFit:
		bestU := -1.0
		for c := 0; c < m; c++ {
			if admits(c) && util(c) > bestU {
				bestU, chosen = util(c), c
			}
		}
	case WorstFit:
		bestU := math.Inf(1)
		for c := 0; c < m; c++ {
			if admits(c) && util(c) < bestU {
				bestU, chosen = util(c), c
			}
		}
	case NextFit:
		for tries := 0; tries < m; tries++ {
			if c := (*cursor + tries) % m; admits(c) {
				*cursor = c
				return c
			}
		}
	}
	return chosen
}

// ChooseCore picks the core a full scan picks, trying each core at most
// once, and tries every core before it returns -1. util vectors draw from a
// small pool so ties are common, and include zeros, NaN and both
// infinities.
func TestChooseCoreMatchesFullScan(t *testing.T) {
	pool := []float64{0, 0, 0.25, 0.5, 0.5, 1, 2, -1, -2, math.NaN(), math.Inf(1), math.Inf(-1)}
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 20000; i++ {
		m := 1 + r.Intn(8)
		h := Heuristic(r.Intn(4))
		utils := make([]float64, m)
		admitted := make([]bool, m)
		for c := range utils {
			utils[c] = pool[r.Intn(len(pool))]
			admitted[c] = r.Intn(3) > 0
		}
		util := func(c int) float64 { return utils[c] }
		calls := make([]int, m)
		admits := func(c int) bool { calls[c]++; return admitted[c] }
		cursor := r.Intn(m)
		wantCursor := cursor
		want := fullScanChooseCore(h, m, func(c int) bool { return admitted[c] }, util, &wantCursor)
		got, err := ChooseCore(h, m, admits, util, &cursor)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || cursor != wantCursor {
			t.Fatalf("%v utils=%v admits=%v: chose %d (cursor %d), full scan %d (cursor %d)",
				h, utils, admitted, got, cursor, want, wantCursor)
		}
		for c, n := range calls {
			if n > 1 || (got < 0 && n != 1) {
				t.Fatalf("%v utils=%v admits=%v: core %d tried %d times (chose %d)", h, utils, admitted, c, n, got)
			}
		}
		if got >= 0 && calls[got] != 1 {
			t.Fatalf("%v utils=%v: chosen core %d was never tried", h, utils, got)
		}
	}
	// Once core 0 is chosen, a core that cannot beat its load gets no trial.
	for h, utils := range map[Heuristic][]float64{BestFit: {0.5, 0.2, 0.5}, WorstFit: {0.2, 0.5, 0.2}} {
		calls := 0
		admits := func(int) bool { calls++; return true }
		if got, _ := ChooseCore(h, 3, admits, func(c int) float64 { return utils[c] }, new(int)); got != 0 || calls != 1 {
			t.Fatalf("%v utils=%v: chose %d after %d trials, want core 0 after 1", h, utils, got, calls)
		}
	}
}
