package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// corpusSystem is one random platform: per core, its real-time tasks and the
// security tasks pinned to it.
type corpusSystem struct {
	rt, sec [][]TaskSpec
	horizon Time
}

// pinned returns each core's real-time tasks followed by its security tasks.
func (s corpusSystem) pinned() [][]TaskSpec {
	out := make([][]TaskSpec, len(s.rt))
	for c := range s.rt {
		out[c] = append(append([]TaskSpec{}, s.rt[c]...), s.sec[c]...)
	}
	return out
}

// global returns every security task, core by core, for slack mode.
func (s corpusSystem) global() []TaskSpec {
	var out []TaskSpec
	for _, specs := range s.sec {
		out = append(out, specs...)
	}
	return out
}

// simCorpus draws n systems of 1-4 cores, each core with 1-3 real-time and
// 0-2 security tasks at per-task utilization 0.05-0.4 (so some cores
// overload), an offset on about a third of the tasks, NonPreemptive on about
// a third of the security tasks, and a horizon of 300-1,000 ms. The float64
// conversions keep a*b+c from fusing into one rounding on platforms with FMA,
// so the corpus is the same everywhere.
func simCorpus(seed int64, n int) []corpusSystem {
	rng := rand.New(rand.NewSource(seed))
	draw := func(name string, prio int, kind Kind) TaskSpec {
		t := 10 + float64(90*rng.Float64())
		s := TaskSpec{Name: name, C: (0.05 + float64(0.35*rng.Float64())) * t, T: t, Prio: prio, Kind: kind}
		if rng.Intn(3) == 0 {
			s.Offset = t * rng.Float64()
		}
		return s
	}
	out := make([]corpusSystem, n)
	for i := range out {
		m := 1 + rng.Intn(4)
		s := corpusSystem{rt: make([][]TaskSpec, m), sec: make([][]TaskSpec, m), horizon: 300 + float64(700*rng.Float64())}
		prio := 0
		for c := 0; c < m; c++ {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				s.rt[c] = append(s.rt[c], draw("rt", prio, KindRT))
				prio++
			}
		}
		for c := 0; c < m; c++ {
			for k := rng.Intn(3); k > 0; k-- {
				spec := draw("sec", 100+prio, KindSecurity)
				spec.NonPreemptive = rng.Intn(3) == 0
				s.sec[c] = append(s.sec[c], spec)
				prio++
			}
		}
		out[i] = s
	}
	return out
}

func writeInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func writeTimes(h hash.Hash, ts ...Time) {
	for _, t := range ts {
		writeInts(h, int64(math.Float64bits(t)))
	}
}

func flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestSimulationDigest pins both modes on a seeded corpus of 300 systems.
// Pinned mode (SimulateSystem) is pinned to the bit: every job's task,
// release, start, finish and preemption count, and each core's idle time,
// misses and unstarted jobs. Slack mode (SimulateGlobalSlack, the security
// tasks global) is pinned on what does not depend on float rounding: each
// job's task and preemption count and whether it started and finished, and
// each trace's misses and unstarted jobs. The security tasks alone carry
// NonPreemptive, so slack mode, where they are global, runs no
// non-preemptive pinned job.
func TestSimulationDigest(t *testing.T) {
	const (
		wantPinned = "33be0b502aaddaa3905ee5c844430f6b04911ddce6a3db3669398720233d84ba"
		wantSlack  = "c4d22699591ee25210195b515c8b551e8077021e30053778f5b754c650700141"
	)
	pinned, slack := sha256.New(), sha256.New()
	for i, s := range simCorpus(29, 300) {
		st, err := SimulateSystem(s.pinned(), s.horizon)
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		for _, tr := range st.Cores {
			for _, j := range tr.Jobs {
				writeInts(pinned, int64(j.Task), int64(j.Preemptions))
				writeTimes(pinned, j.Release, j.Start, j.Finish)
			}
			writeTimes(pinned, tr.IdleTime)
			writeInts(pinned, int64(tr.Misses), int64(tr.Unstarted))
		}
		gt, err := SimulateGlobalSlack(s.rt, s.global(), s.horizon)
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		for _, tr := range gt.Cores {
			for _, j := range tr.Jobs {
				writeInts(slack, int64(j.Task), int64(j.Preemptions), flag(j.Start >= 0), flag(j.Finish >= 0))
			}
			writeInts(slack, int64(tr.Misses), int64(tr.Unstarted))
		}
	}
	if got := hex.EncodeToString(pinned.Sum(nil)); got != wantPinned {
		t.Errorf("pinned-mode digest = %s, want %s", got, wantPinned)
	}
	if got := hex.EncodeToString(slack.Sum(nil)); got != wantSlack {
		t.Errorf("slack-mode digest = %s, want %s", got, wantSlack)
	}
}
