package online

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
)

// TestAdmitSecurityMatchesReference proves that security admission through
// HydraOptions.Place decides exactly what the hand-written per-core loop it
// replaced decided. Random AddRT, AddSecurity, Remove and Reallocate
// sequences run on every hosted scheme; before each AddSecurity the
// reference below computes its placement, or its per-core verdicts, on the
// live committed state, and the system must return the same placement (bit
// for bit) or a Rejection with the same verdict text.
func TestAdmitSecurityMatchesReference(t *testing.T) {
	for _, scheme := range SupportedSchemes() {
		t.Run(scheme, func(t *testing.T) {
			runs, ops := 12, 160
			if scheme == "hydra-gp" {
				runs, ops = 3, 60 // a solver run per (task, core)
			}
			var admits, rejects int
			for run := 0; run < runs; run++ {
				a, r := admitScript(t, scheme, int64(run), ops)
				admits += a
				rejects += r
			}
			t.Logf("%d admits, %d rejections checked", admits, rejects)
			if admits == 0 || rejects == 0 {
				t.Fatal("script must exercise both admits and rejections")
			}
		})
	}
}

// admitScript drives a random sequence of ops on a fresh system and checks
// every AddSecurity against refAdmitSecurity. It returns the numbers of
// admits and rejections it checked.
func admitScript(t *testing.T, scheme string, seed int64, ops int) (admits, rejects int) {
	t.Helper()
	rng := stats.Split(1800+seed, 0)
	m := 1 + int(seed)%4
	w, err := taskgen.Generate(taskgen.DefaultParams(m, 0.6*float64(m)), rng)
	if err != nil {
		t.Fatal(err)
	}
	half := len(w.RT) / 2
	s, err := NewSystem("ref", scheme, partition.BestFit, m, w.RT[:half], nil, w.Sec[:1])
	if err != nil {
		t.Fatal(err)
	}
	names := []string{w.Sec[0].Name}
	for i := 0; i < len(w.RT[:half]); i++ {
		names = append(names, w.RT[i].Name)
	}
	pending := w.RT[half:]
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 2 && len(pending) > 0:
			if _, err := s.AddRT(pending[0]); err == nil {
				names = append(names, pending[0].Name)
			}
			pending = pending[1:]
		case r < 3:
			_, _ = s.Remove(names[rng.Intn(len(names))])
		case r < 4:
			_, _ = s.Reallocate()
		default:
			task := rts.SecurityTask{Name: fmt.Sprintf("sec-%d", op), C: 5 + 200*rng.Float64(), TDes: 1000 + 2000*rng.Float64()}
			task.TMax = task.TDes * (1 + 4*rng.Float64())
			wantCore, wantPeriod, wantVerdicts := refAdmitSecurity(s, task)
			p, err := s.AddSecurity(task)
			if wantCore >= 0 {
				admits++
				if err != nil || p.Core != wantCore || p.Period != wantPeriod || p.Tightness != task.Tightness(wantPeriod) {
					t.Fatalf("seed %d op %d: AddSecurity = %+v, %v; reference admits on core %d at %v", seed, op, p, err, wantCore, wantPeriod)
				}
				names = append(names, task.Name)
				continue
			}
			rejects++
			var rej *Rejection
			if !errors.As(err, &rej) || rej.Task != task.Name || rej.Kind != KindSecurity || !reflect.DeepEqual(rej.Cores, wantVerdicts) {
				t.Fatalf("seed %d op %d: AddSecurity = %+v, %v; reference rejects with %+v", seed, op, p, err, wantVerdicts)
			}
		}
	}
	return admits, rejects
}

// refAdmitSecurity is the security admission decision as written before it
// ran through HydraOptions.Place: fold each core's committed load from
// scratch, adapt the period on it, and score by policy.
func refAdmitSecurity(s *System, t rts.SecurityTask) (int, rts.Time, []CoreVerdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	coreFold := func(c int) rts.CoreLoad {
		load := s.st.RTLoad(c)
		for i := range s.sec {
			if s.sec[i].Core == c {
				load.AddPeriodic(s.sec[i].Task.C, s.sec[i].Period)
			}
		}
		return load
	}
	adapt := core.PeriodAdaptation
	if s.opts.UseGP {
		adapt = core.PeriodAdaptationGP
	}
	bestCore, bestPeriod, bestScore := -1, rts.Time(0), math.Inf(-1)
	verdicts := make([]CoreVerdict, 0, s.m)
	for c := 0; c < s.m; c++ {
		fold := coreFold(c)
		ts, ok := adapt(t, fold)
		if !ok {
			verdicts = append(verdicts, CoreVerdict{Core: c, Reason: fmt.Sprintf(
				"no feasible period in [%g, %g] against committed load (sum C %.4g ms, util %.4g)",
				t.TDes, t.TMax, fold.SumC, fold.SumU)})
			continue
		}
		var score float64
		switch s.opts.Policy {
		case core.BestTightness:
			score = t.Tightness(ts)
		case core.FirstFeasible:
			score = float64(s.m - c)
		case core.LeastLoaded:
			score = 1 - fold.SumU
		}
		if score > bestScore {
			bestScore, bestCore, bestPeriod = score, c, ts
		}
		if s.opts.Policy == core.FirstFeasible {
			break
		}
	}
	return bestCore, bestPeriod, verdicts
}
