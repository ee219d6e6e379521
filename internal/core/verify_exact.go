package core

import (
	"fmt"

	"hydra/internal/rts"
)

// VerifyExact checks a schedulable result against the *exact* ceiling-based
// response-time analysis instead of the paper's linear interference bound:
// every security task, on its assigned core, must have a worst-case response
// time (under interference from all real-time tasks on that core and all
// higher-priority security tasks assigned there) no larger than its adapted
// period. Because the linear bound of Eq. (5) dominates the ceiling bound,
// any result accepted by Verify must also pass VerifyExact; the converse
// does not hold (the exact test admits more). The function is a
// defence-in-depth check.
//
// The per-core interferer lists live in a pooled rts.AnalysisState (seeded
// in RT-partition order, security tasks committed in priority order — the
// same interference summation order as the historical slice-building code),
// so repeated verification allocates nothing in steady state.
func VerifyExact(in *Input, r *Result) error {
	in = EffectiveInput(in, r)
	if !r.Schedulable {
		return fmt.Errorf("core: cannot verify an unschedulable result (%s)", r.Reason)
	}
	if len(r.Assignment) != len(in.Sec) || len(r.Periods) != len(in.Sec) {
		return fmt.Errorf("core: result covers %d/%d tasks, want %d", len(r.Assignment), len(r.Periods), len(in.Sec))
	}
	st := rts.AcquireAnalysisState(in.M)
	defer rts.ReleaseAnalysisState(st)
	for i, c := range in.RTPartition {
		st.SeedRT(c, in.RT[i])
	}
	for _, i := range in.secOrder() {
		s := in.Sec[i]
		c := r.Assignment[i]
		if c < 0 || c >= in.M {
			return fmt.Errorf("core: task %q on invalid core %d", s.Name, c)
		}
		ts := r.Periods[i]
		resp, ok, converged := st.SecurityResponseTime(c, s.C, ts)
		if !ok {
			if !converged {
				// Not a proven miss: the fixed point was not reached within
				// the iteration budget. Conservatively reject, but say so.
				return fmt.Errorf("core: task %q: exact RTA did not converge on core %d (R >= %g, T=%g); treating as unschedulable", s.Name, c, resp, ts)
			}
			return fmt.Errorf("core: task %q misses its adapted deadline on core %d: R=%g > T=%g", s.Name, c, resp, ts)
		}
		st.CommitSecurity(c, s.C, ts)
	}
	return nil
}
