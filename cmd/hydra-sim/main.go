// Command hydra-sim allocates a JSON taskset (same format as cmd/hydra) or a
// built-in workload and runs the allocation through experiments.Simulate, the
// one path Fig. 1 and /v1/simulate share: verify, lower, simulate pinned or
// with -slack reclamation. It reports per-core statistics, intrusion-detection
// latency under random attack injection, and an optional text Gantt timeline:
// the per-taskset counterpart of the paper's Fig. 1 measurement.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hydra/internal/core"
	"hydra/internal/detect"
	"hydra/internal/experiments"
	"hydra/internal/partition"
	"hydra/internal/report"
	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/tasksetio"
	"hydra/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hydra-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("hydra-sim", flag.ContinueOnError)
	input := fs.String("input", "-", "taskset JSON file ('-' for stdin)")
	workload := fs.String("workload", "", "use a named built-in workload (uav, automotive, avionics) instead of -input")
	coresFlag := fs.Int("m", 2, "core count when using -workload")
	scheme := fs.String("scheme", "hydra", "allocation scheme by registry name (hydra, singlecore, partition-best-fit, ...)")
	horizon := fs.Float64("horizon", 100_000, "simulation window in ms")
	attacks := fs.Int("attacks", 500, "random attacks to inject (0 disables)")
	seed := fs.Int64("seed", 1, "attack-injection RNG seed")
	gantt := fs.Float64("gantt", 0, "render a Gantt timeline of the first N ms (0 disables)")
	slack := fs.Bool("slack", false, "use runtime slack reclamation (security jobs migrate to idle cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var problem *tasksetio.Problem
	if *workload != "" {
		w, err := workloads.Get(*workload)
		if err != nil {
			return err
		}
		problem = &tasksetio.Problem{M: *coresFlag, RT: w.RT, Sec: w.Sec}
	} else {
		var err error
		problem, err = tasksetio.Load(*input, stdin)
		if err != nil {
			return err
		}
	}

	// Allocate through the registry seam; input building (partitioning with
	// the self-partitioning fallback) is shared with cmd/hydra and the
	// allocation service.
	alloc, ok := core.Lookup(*scheme)
	if !ok {
		return fmt.Errorf("unknown scheme %q (available: %s)", *scheme, strings.Join(core.Names(), ", "))
	}
	in, err := tasksetio.BuildInput(problem, alloc, partition.BestFit)
	if err != nil {
		return err
	}
	res := alloc.Allocate(in)
	if !res.Schedulable {
		fmt.Fprintf(stdout, "UNSCHEDULABLE (%s): %s\n", res.Scheme, res.Reason)
		return nil
	}
	campaign, err := experiments.Simulate(in, res, *horizon, *slack)
	if err != nil {
		return err
	}

	// Core statistics.
	fmt.Fprintf(stdout, "scheme: %s  cores: %d  horizon: %.0f ms  cumulative tightness: %s\n\n",
		res.Scheme, problem.M, *horizon, report.F(res.Cumulative))
	coreTab := report.NewTable("core", "tasks", "utilization", "idle_ms", "misses")
	for c, tr := range campaign.Trace.Cores {
		label := fmt.Sprintf("%d", c)
		if *slack && c == in.M {
			label = "sec(any)"
		}
		coreTab.AddRowf("%s\t%d\t%s\t%s\t%d", label, len(tr.Specs), report.F(tr.Utilization()), report.F(tr.IdleTime), tr.Misses)
	}
	if err := coreTab.WriteText(stdout); err != nil {
		return err
	}

	// Attack campaign.
	if *attacks > 0 && len(in.Sec) > 0 {
		atk := detect.SampleAttacks(stats.SplitRNG(*seed, 0), *attacks, len(in.Sec), *horizon, 0.8)
		ds, err := campaign.Run(atk)
		if err != nil {
			return err
		}
		lats := detect.Latencies(ds)
		e := stats.NewECDF(lats)
		fmt.Fprintf(stdout, "\nattacks: %d  detected: %d  mean detection: %s ms  p90: %s ms  max: %s ms\n",
			len(ds), len(lats), report.F(e.Mean()), report.F(e.Quantile(0.9)), report.F(e.Max()))
	}

	// Gantt timeline.
	if *gantt > 0 {
		fmt.Fprintln(stdout)
		for c, tr := range campaign.Trace.Cores {
			if len(tr.Specs) == 0 {
				continue
			}
			if *slack && c == in.M {
				fmt.Fprintln(stdout, "security tasks (execute on any idle core):")
			} else {
				fmt.Fprintf(stdout, "core %d:\n", c)
			}
			if err := tr.WriteGantt(stdout, sim.GanttOptions{To: *gantt}); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
	}
	return nil
}
