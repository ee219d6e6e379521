package taskgen

import (
	"fmt"
	"math"
	"math/rand"

	"hydra/internal/rts"
	"hydra/internal/stats"
)

// Params mirrors Sec. IV-B of the paper. The zero value is not valid; use
// DefaultParams and override fields as needed.
type Params struct {
	M         int     // number of cores
	NR        int     // real-time task count; 0 means draw from [3M, 10M]
	NS        int     // security task count; 0 means draw from [2M, 5M]
	TotalUtil float64 // combined RT + security utilization target

	RTPeriodMin, RTPeriodMax rts.Time // real-time periods (log-uniform)
	SecTDesMin, SecTDesMax   rts.Time // security desired periods (uniform)
	TMaxFactor               float64  // Tmax = TMaxFactor * Tdes
	SecUtilFraction          float64  // U_S = frac * U_R (paper: <= 30%)
	MinTaskUtil              float64  // per-task utilization floor (>0)
}

// DefaultParams returns the paper's synthetic-experiment parameters for m
// cores at the given total utilization.
func DefaultParams(m int, totalUtil float64) Params {
	return Params{
		M:           m,
		TotalUtil:   totalUtil,
		RTPeriodMin: 10, RTPeriodMax: 1000,
		SecTDesMin: 1000, SecTDesMax: 3000,
		TMaxFactor:      10,
		SecUtilFraction: 0.3,
		MinTaskUtil:     0.001,
	}
}

// Workload is one generated taskset instance.
type Workload struct {
	RT  []rts.RTTask
	Sec []rts.SecurityTask
}

// GenerateAt draws workload number draw of the stream owned by (version,
// seed, shard), deriving the draw's generator directly instead of consuming
// a shared sequential stream. Shard k of a scaled-out sweep can therefore
// produce its own draws without replaying anyone else's — under
// results_version 2 the derivation is an O(1) SplitMix64 split, which is
// what makes per-shard forking free. The stream label packs (shard, draw)
// exactly like the fig2/fig3 grid cells, so a sharded sweep's draw (k, t)
// equals the single-process engine cell with the same label.
func GenerateAt(p Params, version stats.RNGVersion, seed, shard, draw int64) (*Workload, error) {
	return Generate(p, stats.VersionedRNG(version, seed, shard<<32|draw))
}

// Generate draws one workload. The split between real-time and security
// utilization follows the paper's rule that security tasks get at most
// SecUtilFraction (30%) of the real-time utilization:
//
//	U_R = U_total / (1 + frac),  U_S = U_total - U_R.
func Generate(p Params, rng *rand.Rand) (*Workload, error) {
	if p.M <= 0 {
		return nil, fmt.Errorf("taskgen: M must be positive, got %d", p.M)
	}
	if !(p.TotalUtil > 0) {
		return nil, fmt.Errorf("taskgen: TotalUtil must be positive, got %g", p.TotalUtil)
	}
	if p.MinTaskUtil <= 0 {
		p.MinTaskUtil = 0.001
	}
	nr := p.NR
	if nr == 0 {
		nr = randIntIn(rng, 3*p.M, 10*p.M)
	}
	ns := p.NS
	if ns == 0 {
		ns = randIntIn(rng, 2*p.M, 5*p.M)
	}
	if nr <= 0 || ns < 0 {
		return nil, fmt.Errorf("taskgen: invalid task counts NR=%d NS=%d", nr, ns)
	}

	frac := p.SecUtilFraction
	if frac < 0 {
		frac = 0
	}
	uR := p.TotalUtil / (1 + frac)
	uS := p.TotalUtil - uR
	if ns == 0 {
		uR, uS = p.TotalUtil, 0
	}

	// Feasibility of the draw itself (not of scheduling): every task must
	// fit its per-task utilization in [MinTaskUtil, 1].
	if uR < float64(nr)*p.MinTaskUtil || uR > float64(nr) {
		return nil, fmt.Errorf("taskgen: RT utilization %g not splittable over %d tasks", uR, nr)
	}
	rtUtils, err := RandFixedSum(nr, uR, p.MinTaskUtil, 1, rng)
	if err != nil {
		return nil, fmt.Errorf("taskgen: RT utilizations: %w", err)
	}
	w := &Workload{RT: make([]rts.RTTask, nr)}
	for i, u := range rtUtils {
		period := logUniform(rng, p.RTPeriodMin, p.RTPeriodMax)
		w.RT[i] = rts.NewRTTask(taskName("rt", i), u*period, period)
	}

	if ns > 0 {
		if uS < float64(ns)*p.MinTaskUtil || uS > float64(ns) {
			return nil, fmt.Errorf("taskgen: security utilization %g not splittable over %d tasks", uS, ns)
		}
		secUtils, err := RandFixedSum(ns, uS, p.MinTaskUtil, 1, rng)
		if err != nil {
			return nil, fmt.Errorf("taskgen: security utilizations: %w", err)
		}
		w.Sec = make([]rts.SecurityTask, ns)
		for i, u := range secUtils {
			tdes := p.SecTDesMin + (p.SecTDesMax-p.SecTDesMin)*rng.Float64()
			w.Sec[i] = rts.SecurityTask{
				Name: taskName("sec", i),
				C:    u * tdes,
				TDes: tdes,
				TMax: p.TMaxFactor * tdes,
			}
		}
	}
	if err := rts.ValidateAll(w.RT, w.Sec); err != nil {
		return nil, fmt.Errorf("taskgen: generated invalid workload: %w", err)
	}
	return w, nil
}

// taskNames memoizes the two-digit generated task names ("rt00", "sec17",
// ...): name formatting was a measurable slice of a sweep cell's budget, and
// every draw re-creates the same handful of strings. Indices >= 100 (never
// produced by the paper's parameter ranges) fall back to fmt.
var taskNames [100][2]string

func init() {
	for i := range taskNames {
		digits := string([]byte{'0' + byte(i/10), '0' + byte(i%10)})
		taskNames[i] = [2]string{"rt" + digits, "sec" + digits}
	}
}

// taskName returns prefix+"%02d" for the given index, from the memoized
// table when possible. Only the prefixes "rt" and "sec" are memoized.
func taskName(prefix string, i int) string {
	if i >= 0 && i < len(taskNames) {
		switch prefix {
		case "rt":
			return taskNames[i][0]
		case "sec":
			return taskNames[i][1]
		}
	}
	return fmt.Sprintf("%s%02d", prefix, i)
}

// randIntIn returns a uniform integer in [lo, hi].
func randIntIn(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// logUniform draws from [lo, hi] uniformly in log space, the standard
// period distribution for multiprocessor taskset synthesis [23].
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	if !(hi > lo) {
		return lo
	}
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}
