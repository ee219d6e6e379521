package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
)

// Stream labels: every random draw of the benchmark comes from
// stats.Split(seed, label) with one of these labels (plus an index), so the
// workloads never share a stream.
const (
	streamSweepSeeds   = 1 << 40
	streamReplicaLevel = 2 << 40
	streamColdPick     = 3 << 40
	streamColdDraw     = 4 << 40
	streamHotPick      = 5 << 40
	streamHotDraw      = 6 << 40
	streamHotClient    = 7 << 40
	streamSystemDraw   = 8 << 40
	streamSystemOps    = 9 << 40
)

// sweepCores are the platform sizes of one dse-sweep invocation, as in the
// paper's Fig. 2.
var sweepCores = []int{2, 4, 8}

// fig2Levels is the number of utilization levels of a Fig. 2 subplot
// (0.025M to 0.975M in steps of 0.025M).
const fig2Levels = 39

// fig2Row is one printed utilization level: how many tasksets passed the
// Eq. 1 filter and how many each scheme accepted.
type fig2Row struct {
	generated int
	accepted  [2]int // hydra, singlecore
}

// parseFig2CSV reads hydra-experiments' CSV fig2 output into rows per core
// count. Acceptance counts are recovered from the printed three-decimal
// ratios, which is exact while fewer than 500 tasksets share a level.
func parseFig2CSV(out []byte) (map[int][]fig2Row, error) {
	rows := map[int][]fig2Row{}
	m := 0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "-- ") && strings.HasSuffix(line, " cores --") {
			v, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(line, "-- "), " cores --"))
			if err != nil {
				return nil, fmt.Errorf("fig2 output: bad section %q", line)
			}
			m = v
			continue
		}
		f := strings.Split(line, ",")
		if m == 0 || len(f) != 5 || f[0] == "total_util" {
			continue
		}
		gen, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("fig2 output: bad row %q", line)
		}
		r := fig2Row{generated: gen}
		for i := 0; i < 2; i++ {
			ratio, err := strconv.ParseFloat(f[2+i], 64)
			if err != nil {
				return nil, fmt.Errorf("fig2 output: bad row %q", line)
			}
			r.accepted[i] = int(math.Round(ratio * float64(gen)))
		}
		rows[m] = append(rows[m], r)
	}
	return rows, sc.Err()
}

// fig2Cell recomputes one (level, draw) cell of a fig2 sweep in process,
// following experiments.RunFig2: taskgen draw, Eq. 1 filter, best-fit RT
// partition, then HYDRA and SingleCore. It returns the drawn workload (nil
// when the draw or the filter drops the cell).
func fig2Cell(m int, seed int64, k, t int, hydra, single core.Allocator) (*taskgen.Workload, fig2Row) {
	util := 0.025 * float64(k) * float64(m)
	w, err := taskgen.GenerateAt(taskgen.DefaultParams(m, util), stats.DefaultResultsVersion, seed, int64(k), int64(t))
	if err != nil || !necessary(w, m) {
		return nil, fig2Row{}
	}
	r := fig2Row{generated: 1}
	part, err := partition.PartitionRT(w.RT, m, partition.BestFit)
	if err != nil {
		// Only the self-partitioning scheme gets a shot without a partition.
		in := &core.Input{M: m, RT: w.RT, RTPartition: make([]int, len(w.RT)), Sec: w.Sec}
		if single.Allocate(in).Schedulable {
			r.accepted[1] = 1
		}
		return w, r
	}
	in, err := core.NewInput(m, w.RT, part.CoreOf, w.Sec)
	if err != nil {
		return w, fig2Row{}
	}
	for i, a := range []core.Allocator{hydra, single} {
		if a.Allocate(in).Schedulable {
			r.accepted[i] = 1
		}
	}
	return w, r
}

// necessary is the paper's Eq. 1 filter with security tasks at their
// desired periods, as the fig2 experiment applies it.
func necessary(w *taskgen.Workload, m int) bool {
	all := append([]rts.RTTask(nil), w.RT...)
	for _, s := range w.Sec {
		all = append(all, rts.NewRTTask(s.Name, s.C, s.TDes))
	}
	return rts.NecessaryConditionHolds(all, m)
}

// sweepSeed is the -seed of the i-th sweep invocation of a run.
func sweepSeed(seed int64, i int) int64 { return stats.Split(seed, streamSweepSeeds+int64(i)).Int63() }

// runSweep is the dse-sweep workload: back-to-back hydra-experiments fig2
// sweeps over M = 2, 4, 8, each with its own seed. An op is one grid cell;
// a latency sample is one invocation, which is what a design-space user
// waits for.
func runSweep(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{latWhat: "sweep invocations", layers: map[string]float64{}, extra: map[string]float64{}}
	tasksets := strconv.Itoa(e.sc.sweepTasksets)
	// Set-up: the fixed cost every sweep pays, measured as the smallest sweep
	// (exec, runtime and registry start-up, engine start, exit).
	err := e.setUp(o, func(int) (time.Duration, error) {
		_, took, _, _, err := e.runExperiments(ctx, "-experiment", "fig2", "-cores", "2", "-tasksets", "1", "-workers", "2", "-seed", strconv.FormatInt(e.seed, 10), "-format", "csv")
		return took, err
	})
	if err != nil {
		return nil, err
	}

	cells := len(sweepCores) * fig2Levels * e.sc.sweepTasksets
	var outputs [][]byte
	var seeds []int64
	runtime.GC() // as in loop: none of the set-up's garbage is collected in the measured phase
	deadline := time.Now().Add(e.window)
	cpu0, start := selfCPU(), time.Now()
	for i := 0; ctx.Err() == nil && time.Now().Before(deadline) && (e.maxOps == 0 || o.ops < e.maxOps); i++ {
		seed := sweepSeed(e.seed, i)
		out, took, u, gcs, err := e.runExperiments(ctx, "-experiment", "fig2", "-cores", "2,4,8", "-tasksets", tasksets,
			"-workers", "2", "-seed", strconv.FormatInt(seed, 10), "-format", "csv")
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			o.ops += cells
			o.failed += cells
			o.checks = append(o.checks, fail("sweep", "invocation %d: %v", i, err))
			continue
		}
		o.ops += cells
		o.latMS = append(o.latMS, float64(took)/float64(time.Millisecond))
		o.childCPU += u.cpu
		o.rssKB = max(o.rssKB, u.rssKB)
		o.gcs += int64(gcs)
		outputs = append(outputs, out)
		seeds = append(seeds, seed)
	}
	o.win = window{wall: time.Since(start), clientCPU: selfCPU() - cpu0}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("dse-sweep: no sweep completed")
	}
	sum := sha256.Sum256(outputs[0])
	o.digest = hex.EncodeToString(sum[:])

	// Check every sweep: the grid's shape, then replica levels at M=4
	// recomputed in process. The replica's RTA counters and allocations stand
	// in for the child's, which a finished process no longer exposes.
	hydra, single := core.MustLookup("hydra"), core.NewSingleCoreAllocator(partition.BestFit)
	rta0 := rts.ReadAnalysisMetrics()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var pool []problemSpec
	replicaCells, mismatches := 0, 0
	var firstMismatch string
	for i, out := range outputs {
		rows, err := parseFig2CSV(out)
		if err == nil {
			for _, m := range sweepCores {
				if len(rows[m]) != fig2Levels {
					err = fmt.Errorf("M=%d has %d levels, want %d", m, len(rows[m]), fig2Levels)
				}
			}
		}
		if err != nil {
			mismatches++
			firstMismatch = fmt.Sprintf("sweep %d: %v", i, err)
			continue
		}
		rng := stats.Split(e.seed, streamReplicaLevel+int64(i))
		for _, li := range rng.Perm(fig2Levels)[:e.sc.replicaLevels] {
			k := li + 1
			var want fig2Row
			for t := 0; t < e.sc.sweepTasksets; t++ {
				w, r := fig2Cell(4, seeds[i], k, t, hydra, single)
				replicaCells++
				want.generated += r.generated
				want.accepted[0] += r.accepted[0]
				want.accepted[1] += r.accepted[1]
				if w != nil && len(pool) < e.sc.replayLimit {
					util := 0.025 * float64(k) * 4
					pool = append(pool, problemSpec{params: taskgen.DefaultParams(4, util), seed: seeds[i], stream: int64(k)<<32 | int64(t), w: w})
				}
			}
			if got := rows[4][li]; got != want {
				mismatches++
				firstMismatch = fmt.Sprintf("sweep %d, M=4 level %d: child %+v, replica %+v", i, k, got, want)
			}
		}
	}
	rta1 := rts.ReadAnalysisMetrics()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if mismatches > 0 {
		o.checks = append(o.checks, fail("replica", "%d mismatches; first: %s", mismatches, firstMismatch))
	} else {
		o.checks = append(o.checks, pass("replica", "%d sweeps: grids complete, %d M=4 levels (%d cells) equal the in-process replica", len(outputs), len(outputs)*e.sc.replicaLevels, replicaCells))
	}
	o.extra["sweep_cells"] = float64(cells)

	n := float64(replicaCells)
	fixed := float64(rta1.FixedPoints - rta0.FixedPoints)
	o.layers["runtime.alloc_bytes_per_op"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), n)
	o.layers["rta.fixed_points_per_op"] = ratio(fixed, n)
	o.layers["rta.iters_per_fixed_point"] = ratio(float64(rta1.Iterations-rta0.Iterations), fixed)
	o.layers["rta.warm_start_ratio"] = ratio(float64(rta1.WarmStarts-rta0.WarmStarts), fixed)
	o.layers["rta.trial_reuses_per_op"] = ratio(float64(rta1.TrialReuses-rta0.TrialReuses), n)
	for _, name := range []string{"cache.hit_ratio", "cache.evictions_per_op", "cache.coalesced_per_op", "pool.reuse_ratio", "wal.appends_per_op", "snapshot.writes_per_kop"} {
		o.layers[name] = 0 // no server, no cache, no log
	}
	if e.trace {
		if err := replayLayers(ctx, e, o, pool, nil); err != nil {
			return nil, err
		}
	}
	return o, nil
}
