package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/service"
	"hydra/internal/stats"
	"hydra/internal/syspersist"
	"hydra/internal/taskgen"
	"hydra/internal/tasksetio"
)

// replayLayers times the layers in process on the workload's own inputs and
// adds the results to o.layers: the allocation path on the workload's
// problems (pool), and the online and durable layers on an op sequence. rep
// is the workload's own online replay when it has one (systems-durable);
// otherwise systems are built from the pool's problems and driven with the
// systems-durable op mix.
func replayLayers(ctx context.Context, e *env, o *outcome, pool []problemSpec, rep *onlineReplay) error {
	if rep == nil {
		var specs []systemSpec
		for _, ps := range pool {
			if len(specs) == e.sc.systems {
				break
			}
			if sp, ok := admissible(len(specs), ps); ok {
				specs = append(specs, sp)
			}
		}
		if len(specs) == 0 {
			// No pool problem can host a system (a sweep drew only high
			// utilization levels): fall back to the systems-durable systems.
			specs = systemsPool(e.seed, e.sc.systems, 4, 1.6)
		}
		counts := make([]int, len(specs))
		for j := range counts {
			counts[j] = e.sc.replayOps
		}
		var err error
		if rep, err = replayOnline(specs, e.seed, counts); err != nil {
			return err
		}
	} else {
		for _, sp := range rep.specs {
			pool = append(pool, sp.problemSpec)
		}
	}
	if len(pool) > e.sc.replayLimit {
		pool = pool[:e.sc.replayLimit]
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for k, v := range replayPool(pool) {
		o.layers[k] = v
	}

	var took [numOpKinds]time.Duration
	var count [numOpKinds]int
	adds, admitted := 0, 0
	for _, ops := range rep.ops {
		for _, r := range ops {
			took[r.op.kind] += r.took
			count[r.op.kind]++
			if r.op.kind == opAddRT || r.op.kind == opAddSecurity {
				adds++
				if r.admitted {
					admitted++
				}
			}
		}
	}
	meanUS := func(k opKind) float64 { return ratio(float64(took[k])/float64(time.Microsecond), float64(count[k])) }
	o.layers["online.admit_security_us"] = meanUS(opAddSecurity)
	o.layers["online.admit_rt_us"] = meanUS(opAddRT)
	o.layers["online.remove_us"] = meanUS(opRemove)
	o.layers["online.accept_ratio"] = ratio(float64(admitted), float64(adds))

	d, err := replayDurable(filepath.Join(e.work, "replay-systems"), rep, e.sc.replayOps)
	if err != nil {
		return err
	}
	o.layers["syspersist.overhead_us"] = d.overheadUS
	o.layers["wal.append_us"] = d.appendUS
	o.layers["snapshot.write_us"] = d.snapshotUS
	return nil
}

// replayPool times the allocation path's layers on each problem, in the
// order the server and the fig2 sweep run them, and returns the mean time
// per call of each. The pool is walked twice and the second walk timed, so
// pooled scratch state is warm as it is in a running process.
func replayPool(pool []problemSpec) map[string]float64 {
	hydra := core.MustLookup(service.DefaultScheme)
	single := core.NewSingleCoreAllocator(partition.BestFit)
	names := []string{"taskgen.generate_us", "rts.necessary_us", "tasksetio.decode_us", "tasksetio.canonical_us",
		"partition.rt_us", "core.allocate_us", "core.verify_us", "tasksetio.encode_us", "core.allocate_singlecore_us"}
	var sum [9]time.Duration
	var n [9]int
	var buf bytes.Buffer
	for walk := 0; walk < 2; walk++ {
		sum, n = [9]time.Duration{}, [9]int{}
		lap := func(i int, t0 time.Time) {
			sum[i] += time.Since(t0)
			n[i]++
		}
		for _, ps := range pool {
			t0 := time.Now()
			w, err := taskgen.Generate(ps.params, stats.Split(ps.seed, ps.stream))
			lap(0, t0)
			if err != nil {
				continue
			}
			t0 = time.Now()
			necessary(w, ps.params.M)
			lap(1, t0)
			body := allocateBody(ps)
			t0 = time.Now()
			p, err := decodeAllocate(body)
			lap(2, t0)
			if err != nil {
				continue
			}
			t0 = time.Now()
			canon := p.Canonical()
			service.Key(canon, hydra.Name(), partition.BestFit, stats.DefaultResultsVersion)
			lap(3, t0)
			t0 = time.Now()
			in, err := tasksetio.BuildInput(canon, hydra, partition.BestFit)
			lap(4, t0)
			res := &core.Result{Scheme: hydra.Name()}
			if err == nil {
				t0 = time.Now()
				res = hydra.Allocate(in)
				lap(5, t0)
				if res.Schedulable {
					t0 = time.Now()
					_ = core.Verify(in, res)
					lap(6, t0)
				}
			}
			t0 = time.Now()
			_ = encodeResult(&buf, canon, res)
			lap(7, t0)
			if in2, err := tasksetio.BuildInput(canon, single, partition.BestFit); err == nil {
				t0 = time.Now()
				single.Allocate(in2)
				lap(8, t0)
			}
		}
	}
	out := make(map[string]float64, len(names))
	for i, name := range names {
		out[name] = ratio(float64(sum[i])/float64(time.Microsecond), float64(n[i]))
	}
	return out
}

// persistTimes collects the durability layer's latency signals.
type persistTimes struct {
	mu             sync.Mutex
	appends, snaps int
	appendD, snapD time.Duration
}

func (p *persistTimes) ObserveWALAppend(d time.Duration) {
	p.mu.Lock()
	p.appends++
	p.appendD += d
	p.mu.Unlock()
}

func (p *persistTimes) ObserveWALFsync(time.Duration) {}

func (p *persistTimes) ObserveSnapshot(d time.Duration) {
	p.mu.Lock()
	p.snaps++
	p.snapD += d
	p.mu.Unlock()
}

// durableTimes is the durable replay's per-layer result.
type durableTimes struct {
	overheadUS float64 // mean DurableSystem op time minus the same op in memory
	appendUS   float64 // mean op-log line write
	snapshotUS float64 // mean snapshot file write
}

// replayDurable applies the first limit mutations of each replayed system
// through a syspersist registry in dir, with the server's snapshot cadence,
// and compares each op's time with the in-memory replay's.
func replayDurable(dir string, rep *onlineReplay, limit int) (durableTimes, error) {
	rec := &persistTimes{}
	reg, err := syspersist.Open(syspersist.Options{Dir: dir, Observer: rec})
	if err != nil {
		return durableTimes{}, err
	}
	var durable, inMemory time.Duration
	n := 0
	for j, sp := range rep.specs {
		ds, err := reg.Create(sp.id, service.DefaultScheme, partition.BestFit, sp.params.M, sp.w.RT, nil, sp.w.Sec, 0)
		if err != nil {
			reg.Close()
			return durableTimes{}, fmt.Errorf("durable replay: %w", err)
		}
		for i, r := range rep.ops[j] {
			if i == limit {
				break
			}
			t0 := time.Now()
			switch r.op.kind {
			case opAddRT:
				_, _ = ds.AddRT(r.op.rt)
			case opAddSecurity:
				_, _ = ds.AddSecurity(r.op.sec)
			case opRemove:
				_, _ = ds.Remove(r.op.name)
			default:
				continue
			}
			durable += time.Since(t0)
			inMemory += r.took
			n++
		}
	}
	reg.Close()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	us := func(d time.Duration, k int) float64 { return ratio(float64(d)/float64(time.Microsecond), float64(k)) }
	return durableTimes{
		overheadUS: us(durable-inMemory, n),
		appendUS:   us(rec.appendD, rec.appends),
		snapshotUS: us(rec.snapD, rec.snaps),
	}, nil
}
