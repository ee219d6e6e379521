// Command hydra allocates security tasks onto a partitioned multicore
// real-time system, implementing the HYDRA heuristic of Hasan et al.
// (DATE 2018) alongside the SingleCore, exhaustive-optimal, and bin-packing
// baselines. Any scheme registered in the allocator registry can be selected
// by name (-list-schemes prints the catalogue).
//
// Usage:
//
//	hydra -input taskset.json [-scheme <name>] [-policy ...]
//
// The input format is documented in internal/tasksetio; see
// examples/quickstart for a minimal programmatic use of the library.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/report"
	"hydra/internal/tasksetio"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hydra:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("hydra", flag.ContinueOnError)
	input := fs.String("input", "-", "taskset JSON file ('-' for stdin)")
	scheme := fs.String("scheme", "hydra", "allocation scheme by registry name (see -list-schemes)")
	policy := fs.String("policy", "best-tightness", "hydra scheme: commitment policy: best-tightness, first-feasible or least-loaded")
	heuristic := fs.String("heuristic", "best-fit", "RT partition heuristic: first-fit, best-fit, worst-fit or next-fit")
	useGP := fs.Bool("gp", false, "hydra scheme: solve period adaptation with the geometric-programming solver instead of the closed form")
	explain := fs.Bool("explain", false, "hydra scheme: print the per-task decision trace (candidate cores, periods, hints)")
	refine := fs.Bool("refine", false, "opt scheme: refine per-core periods with the signomial sequential-GP maximizer")
	format := fs.String("format", "text", "output format: text or csv")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (the tasksetio.ResultJSON interchange format)")
	list := fs.Bool("list-schemes", false, "print the registered allocation schemes and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(core.Names(), "\n"))
		return nil
	}
	// Each modifier flag configures one scheme; refuse it with any other
	// rather than run a configuration other than the one asked for.
	if *scheme != "hydra" && (*policy != "best-tightness" || *useGP || *explain) {
		return fmt.Errorf("-policy, -gp and -explain apply only to -scheme hydra (got -scheme %s)", *scheme)
	}
	if *scheme != "opt" && *refine {
		return fmt.Errorf("-refine applies only to -scheme opt (got -scheme %s)", *scheme)
	}

	problem, err := tasksetio.Load(*input, stdin)
	if err != nil {
		return err
	}
	h, err := partition.ParseHeuristic(*heuristic)
	if err != nil {
		return err
	}

	// Resolve the allocator. The schemes with CLI modifier flags are built
	// directly so -policy/-gp/-refine take effect; everything else comes
	// from the registry by name, and singlecore repacks with -heuristic.
	var alloc core.Allocator
	switch *scheme {
	case "hydra":
		pol, err := parsePolicy(*policy)
		if err != nil {
			return err
		}
		alloc = core.NewHydraAllocator(core.HydraOptions{Policy: pol, UseGP: *useGP})
	case "opt":
		alloc = core.NewOptimalAllocator(core.OptimalOptions{RefineJointGP: *refine, MaxAssignments: 1 << 20})
	default:
		var ok bool
		if alloc, ok = core.Lookup(*scheme); !ok {
			return fmt.Errorf("unknown scheme %q (available: %s)", *scheme, strings.Join(core.Names(), ", "))
		}
		alloc = core.WithHeuristic(alloc, h)
	}

	in, err := tasksetio.BuildInput(problem, alloc, h)
	if err != nil {
		return err
	}
	if *explain {
		// ExplainHydra traces Algorithm 1 in the paper's default
		// configuration; refuse combinations where the trace would describe
		// a different allocation than the result below.
		if *policy != "best-tightness" || *useGP {
			return fmt.Errorf("-explain supports only the default best-tightness closed-form configuration (got -policy %s, -gp %v)", *policy, *useGP)
		}
		if *jsonOut {
			return fmt.Errorf("-explain writes a text trace and cannot be combined with -json")
		}
		ex := core.ExplainHydra(in)
		if err := ex.WriteText(stdout); err != nil {
			return err
		}
		if !ex.Result.Schedulable {
			fmt.Fprintf(stdout, "UNSCHEDULABLE (%s): %s\n", ex.Result.Scheme, ex.Result.Reason)
			return nil
		}
		fmt.Fprintln(stdout)
	}
	res := alloc.Allocate(in)

	if !res.Schedulable {
		if *jsonOut {
			return tasksetio.EncodeResult(stdout, problem, res)
		}
		fmt.Fprintf(stdout, "UNSCHEDULABLE (%s): %s\n", res.Scheme, res.Reason)
		return nil
	}
	if err := core.Verify(in, res); err != nil {
		return fmt.Errorf("internal error: result failed verification: %w", err)
	}
	if *jsonOut {
		return tasksetio.EncodeResult(stdout, problem, res)
	}

	tb := report.NewTable("task", "core", "period_ms", "tightness", "weight")
	for i, s := range problem.Sec {
		tb.AddRowf("%s\t%d\t%s\t%s\t%s",
			s.Name, res.Assignment[i], report.F(res.Periods[i]), report.F(res.Tightness[i]), report.F(s.EffectiveWeight()))
	}
	switch *format {
	case "text":
		fmt.Fprintf(stdout, "scheme: %s  cores: %d  cumulative tightness: %s\n\n", res.Scheme, problem.M, report.F(res.Cumulative))
		if err := tb.WriteText(stdout); err != nil {
			return err
		}
	case "csv":
		if err := tb.WriteCSV(stdout); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

func parsePolicy(s string) (core.Policy, error) {
	switch s {
	case "best-tightness":
		return core.BestTightness, nil
	case "first-feasible":
		return core.FirstFeasible, nil
	case "least-loaded":
		return core.LeastLoaded, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}
