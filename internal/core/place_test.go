package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
)

// TestPlaceMatchesParentLoops proves that routing Hydra, HydraExt and
// ExplainHydra through HydraOptions.Place changed nothing: over a taskgen
// corpus from light load to past saturation, every Result (reason strings
// included) and every Explanation is deeply equal to the one the
// hand-written per-scheme loops below produce. Those loops are the
// implementations Place replaced, kept verbatim as the reference.
//
// Under the closed form no feasible core scores negative for LeastLoaded
// (feasibility needs SumU < 1), so the corpus exercises the -Inf floor
// through saturated cores, which no task fits, and tasks that fit nowhere.
func TestPlaceMatchesParentLoops(t *testing.T) {
	const problems = 2400
	policies := []Policy{BestTightness, FirstFeasible, LeastLoaded}
	var runs, unschedulable, saturated, chained, gp int
	for k := 0; k < problems; k++ {
		m := 1 + k%8
		rng := stats.Split(18, int64(k))
		// Total utilization from 0.3 to 1.5 per core: the top third of the
		// range is past saturation.
		w, err := taskgen.Generate(taskgen.DefaultParams(m, float64(m)*(0.3+1.2*rng.Float64())), rng)
		if err != nil {
			t.Fatalf("problem %d: %v", k, err)
		}
		in := placeTestInput(t, w, m, k%2 == 1)
		for _, l := range in.RTLoads() {
			if l.SumU >= 1 {
				saturated++
			}
		}

		check := func(what string, got, want *Result) {
			t.Helper()
			runs++
			if !got.Schedulable {
				unschedulable++
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("problem %d (m=%d) %s:\n got  %+v\n want %+v", k, m, what, got, want)
			}
		}
		if ex, want := ExplainHydra(in), refExplainHydra(in); !reflect.DeepEqual(ex, want) {
			t.Fatalf("problem %d (m=%d) ExplainHydra:\n got  %+v\n want %+v", k, m, ex, want)
		}
		for _, p := range policies {
			opt := HydraOptions{Policy: p}
			check("Hydra "+p.String(), Hydra(in, opt), refHydra(in, opt))
			// The GP route costs a solver run per (task, core): sample it.
			if k%241 == int(p) {
				gp++
				opt.UseGP = true
				check("Hydra GP "+p.String(), Hydra(in, opt), refHydra(in, opt))
				opt.UseGP = false
			}
			chains := randomChains(rng, len(in.Sec))
			if len(chains) > 0 {
				chained++
			}
			for _, np := range []bool{false, true} {
				ext := ExtOptions{HydraOptions: opt, NonPreemptiveSecurity: np}
				check("HydraExt "+p.String(), HydraExt(in, ext), refHydraExt(in, ext))
				ext.Chains = chains
				check("HydraExt chains "+p.String(), HydraExt(in, ext), refHydraExt(in, ext))
			}
		}
	}
	t.Logf("%d results compared, %d unschedulable, %d saturated cores, %d chained runs, %d GP runs",
		runs, unschedulable, saturated, chained, gp)
	if unschedulable == 0 || saturated == 0 || chained == 0 || gp == 0 {
		t.Fatal("corpus misses a regime it exists to cover")
	}
}

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// TestHydraExtAllocsMatchHydra pins HydraExt's per-call allocations to
// Hydra's: with the core choice shared through Place, the extensions' only
// extra working memory is pooled, so the non-preemptive variant allocates
// exactly what Algorithm 1 does.
func TestHydraExtAllocsMatchHydra(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	w, err := taskgen.Generate(taskgen.DefaultParams(4, 2.0), stats.Split(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	in := placeTestInput(t, w, 4, false)
	hydra := testing.AllocsPerRun(100, func() { Hydra(in, HydraOptions{}) })
	np := testing.AllocsPerRun(100, func() { HydraExt(in, ExtOptions{NonPreemptiveSecurity: true}) })
	if np != hydra {
		t.Fatalf("HydraExt with NP: %v allocs/op, Hydra: %v (%d security tasks)", np, hydra, len(in.Sec))
	}
}

// placeTestInput builds the corpus input: a best-fit exact-RTA packing when
// one exists and roundRobin is false, else the RT tasks dealt round-robin,
// which overloads cores once the taskset is past saturation.
func placeTestInput(t *testing.T, w *taskgen.Workload, m int, roundRobin bool) *Input {
	t.Helper()
	var part []int
	if !roundRobin {
		if p, err := partition.PartitionRT(w.RT, m, partition.BestFit); err == nil {
			part = p.CoreOf
		}
	}
	if part == nil {
		part = make([]int, len(w.RT))
		for i := range part {
			part[i] = i % m
		}
	}
	in, err := NewInput(m, w.RT, part, w.Sec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// randomChains draws zero to two disjoint precedence chains of two or three
// security tasks out of n.
func randomChains(rng *rand.Rand, n int) [][]int {
	perm := rng.Perm(n)
	var chains [][]int
	for c := rng.Intn(3); c > 0 && len(perm) >= 2; c-- {
		l := 2 + rng.Intn(2)
		if l > len(perm) {
			l = len(perm)
		}
		chains = append(chains, perm[:l:l])
		perm = perm[l:]
	}
	return chains
}

// The reference loops: Hydra, HydraExt and ExplainHydra as written before
// they shared HydraOptions.Place.

func refHydra(in *Input, opt HydraOptions) *Result {
	if err := in.Validate(); err != nil {
		return newInfeasible("hydra", err.Error())
	}
	sc := acquireScratch()
	defer releaseScratch(sc)
	sc.loads = in.copyRTLoads(sc.loads)
	loads := sc.loads // mutated as security tasks are committed
	assign := make([]int, len(in.Sec))
	periods := make([]rts.Time, len(in.Sec))

	adapt := PeriodAdaptation
	if opt.UseGP {
		adapt = PeriodAdaptationGP
	}

	for _, i := range in.secOrder() {
		s := in.Sec[i]
		bestCore := -1
		var bestPeriod rts.Time
		// Start below any achievable score: LeastLoaded scores 1 - SumU,
		// which can go negative on a loaded core, and a stale finite floor
		// would make such a core unselectable even when it is the only
		// feasible one.
		bestScore := math.Inf(-1)
		for c := 0; c < in.M; c++ {
			ts, ok := adapt(s, loads[c])
			if !ok {
				continue
			}
			var score float64
			switch opt.Policy {
			case BestTightness:
				score = s.Tightness(ts)
			case FirstFeasible:
				score = float64(in.M - c) // first feasible wins
			case LeastLoaded:
				score = 1 - loads[c].SumU // emptier core wins
			default:
				return newInfeasible("hydra", fmt.Sprintf("unknown policy %v", opt.Policy))
			}
			if score > bestScore {
				bestScore, bestCore, bestPeriod = score, c, ts
			}
			if opt.Policy == FirstFeasible {
				break
			}
		}
		if bestCore < 0 {
			return newInfeasible("hydra",
				fmt.Sprintf("no feasible core for security task %q (C=%g, TDes=%g, TMax=%g)", s.Name, s.C, s.TDes, s.TMax))
		}
		assign[i] = bestCore
		periods[i] = bestPeriod
		loads[bestCore].AddPeriodic(s.C, bestPeriod)
	}
	return finalize(in, "hydra", assign, periods)
}

func refHydraExt(in *Input, opt ExtOptions) *Result {
	if err := in.Validate(); err != nil {
		return newInfeasible("hydra-ext", err.Error())
	}
	sc := acquireScratch()
	defer releaseScratch(sc)
	order, chainPred, err := extOrder(in, opt.Chains, sc)
	if err != nil {
		return newInfeasible("hydra-ext", err.Error())
	}

	// Blocking terms: for each task (by priority rank), the largest WCET of
	// any task processed after it. Computed over the processing order.
	sc.blocking = filled(sc.blocking, len(in.Sec), 0)
	blocking := sc.blocking
	if opt.NonPreemptiveSecurity {
		var maxC rts.Time
		for k := len(order) - 1; k >= 0; k-- {
			blocking[order[k]] = maxC
			if c := in.Sec[order[k]].C; c > maxC {
				maxC = c
			}
		}
	}

	sc.loads = in.copyRTLoads(sc.loads)
	loads := sc.loads
	assign := make([]int, len(in.Sec))
	periods := make([]rts.Time, len(in.Sec))
	for i := range assign {
		assign[i] = -1
	}

	for _, i := range order {
		s := in.Sec[i]
		// Blocking enters the analysis exactly like extra execution demand.
		s.C += blocking[i]
		minPeriod := s.TDes
		cores := refAllCores(in.M)
		if p := chainPred[i]; p >= 0 {
			if assign[p] < 0 {
				return newInfeasible("hydra-ext", fmt.Sprintf("internal: predecessor of %q not yet allocated", s.Name))
			}
			cores = []int{assign[p]}
			if periods[p] > minPeriod {
				minPeriod = periods[p]
			}
		}
		if minPeriod > s.TMax {
			return newInfeasible("hydra-ext",
				fmt.Sprintf("task %q: chain-inherited period %g exceeds TMax %g", s.Name, minPeriod, s.TMax))
		}
		adjusted := s
		adjusted.TDes = minPeriod

		// math.Inf(-1), not a finite floor: LeastLoaded's 1 - SumU score can
		// go negative on a loaded core (see the same fix in Hydra).
		bestCore, bestPeriod, bestScore := -1, rts.Time(0), math.Inf(-1)
		for _, c := range cores {
			ts, ok := PeriodAdaptation(adjusted, loads[c])
			if !ok {
				continue
			}
			// Score by tightness against the *original* desired period.
			score := in.Sec[i].Tightness(ts)
			switch opt.Policy {
			case BestTightness:
			case FirstFeasible:
				score = float64(in.M - c)
			case LeastLoaded:
				score = 1 - loads[c].SumU
			default:
				return newInfeasible("hydra-ext", fmt.Sprintf("unknown policy %v", opt.Policy))
			}
			if score > bestScore {
				bestScore, bestCore, bestPeriod = score, c, ts
			}
		}
		if bestCore < 0 {
			return newInfeasible("hydra-ext", fmt.Sprintf("no feasible core for security task %q", in.Sec[i].Name))
		}
		assign[i] = bestCore
		periods[i] = bestPeriod
		// Commit the inflated demand (WCET + blocking is pessimistic for
		// interference on later tasks but keeps the analysis one-sided).
		loads[bestCore].AddPeriodic(s.C, bestPeriod)
	}
	r := finalize(in, "hydra-ext", assign, periods)
	return r
}

// refAllCores returns [0, 1, ..., m-1].
func refAllCores(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

func refExplainHydra(in *Input) *Explanation {
	ex := &Explanation{}
	if err := in.Validate(); err != nil {
		ex.Result = newInfeasible("hydra", err.Error())
		return ex
	}
	loads := in.RTLoads()
	assign := make([]int, len(in.Sec))
	periods := make([]rts.Time, len(in.Sec))

	for rank, i := range in.secOrder() {
		s := in.Sec[i]
		d := Decision{TaskIndex: i, TaskName: s.Name, Rank: rank, Chosen: -1}
		bestScore := -1.0
		var bestPeriod rts.Time
		for c := 0; c < in.M; c++ {
			cand := CandidateEval{
				Core:      c,
				MinPeriod: loads[c].MinFeasiblePeriod(s.C),
				CoreUtil:  loads[c].SumU,
			}
			if ts, ok := PeriodAdaptation(s, loads[c]); ok {
				cand.Feasible = true
				cand.Period = ts
				cand.Tightness = s.Tightness(ts)
				if cand.Tightness > bestScore {
					bestScore = cand.Tightness
					bestPeriod = ts
					d.Chosen = c
				}
			}
			d.Candidates = append(d.Candidates, cand)
		}
		ex.Decisions = append(ex.Decisions, d)
		if d.Chosen < 0 {
			ex.Result = newInfeasible("hydra",
				fmt.Sprintf("no feasible core for security task %q (C=%g, TDes=%g, TMax=%g)", s.Name, s.C, s.TDes, s.TMax))
			return ex
		}
		assign[i] = d.Chosen
		periods[i] = bestPeriod
		loads[d.Chosen].AddPeriodic(s.C, bestPeriod)
	}
	ex.Result = finalize(in, "hydra", assign, periods)
	return ex
}
