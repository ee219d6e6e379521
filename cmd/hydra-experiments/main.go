// Command hydra-experiments regenerates every table and figure of the
// paper's evaluation section:
//
//	table1   — the Table I security-task inventory
//	fig1     — UAV case study: detection-time ECDFs across schemes
//	fig2     — synthetic tasksets: acceptance-ratio improvement vs utilization
//	fig3     — scheme vs exhaustive-optimal cumulative-tightness gap
//	ablation — commitment policy x RT-partition heuristic sweep
//
// Schemes are selected by name from the allocator registry (-schemes; see
// -list-schemes for the catalogue), and the experiment grids run on the
// parallel engine (-workers). Each experiment prints plot-ready rows (text
// or CSV). Runs are deterministic for a fixed -seed regardless of -workers.
//
// Long campaigns can checkpoint: -checkpoint <dir> runs one experiment as a
// resumable campaign (the same per-cell checkpoint format hydra-serve's
// /v1/experiments jobs use), and -resume <dir> continues an interrupted
// campaign — its own or one left behind by a killed server — emitting the
// byte-identical result JSON an uninterrupted run would have produced.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"hydra/internal/core"
	"hydra/internal/experiments"
	"hydra/internal/jobs"
	"hydra/internal/online"
	"hydra/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hydra-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hydra-experiments", flag.ContinueOnError)
	which := fs.String("experiment", "all", "table1, fig1, fig2, fig3, ablation, online or all")
	seed := fs.Int64("seed", 1, "RNG seed (experiments are deterministic per seed)")
	tasksets := fs.Int("tasksets", 250, "tasksets per utilization point (fig2; fig3 uses a quarter)")
	attacks := fs.Int("attacks", 1000, "attacks per scheme and core count (fig1)")
	cores := fs.String("cores", "2,4,8", "comma-separated platform sizes (fig1, fig2)")
	schemes := fs.String("schemes", "hydra,singlecore", "comma-separated allocation schemes: fig1 compares the first two or more, fig2 tabulates all, fig3 measures the first against opt; ablation has its own scheme grid (see -list-schemes)")
	workers := fs.Int("workers", 0, "parallel grid workers (0 = all hardware threads; results identical for any value)")
	format := fs.String("format", "text", "output format: text or csv")
	refine := fs.Bool("refine", false, "fig3: refine optimal periods with the sequential-GP maximizer")
	list := fs.Bool("list-schemes", false, "print the registered allocation schemes and exit")
	checkpoint := fs.String("checkpoint", "", "run one experiment as a resumable campaign checkpointed in this directory, printing the result JSON")
	resume := fs.String("resume", "", "resume an interrupted campaign from its checkpoint directory, printing the result JSON")
	resultsVersion := fs.Int("results-version", 0, "RNG/results version: 0 = current default (2), 1 = legacy math/rand streams, 2 = splittable SplitMix64")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(core.Names(), "\n"))
		return nil
	}
	if *resume != "" && *checkpoint != "" {
		return fmt.Errorf("-checkpoint and -resume are mutually exclusive")
	}
	if *resume != "" {
		return resumeCampaign(*resume, stdout)
	}
	coreList, err := parseCores(*cores)
	if err != nil {
		return err
	}
	schemeList, err := parseSchemes(*schemes)
	if err != nil {
		return err
	}
	if *checkpoint != "" {
		config, err := campaignConfig(*which, coreList, schemeList, *seed, *tasksets, *attacks, *workers, *refine, *resultsVersion)
		if err != nil {
			return err
		}
		return startCampaign(*checkpoint, *which, config, stdout)
	}
	emit := func(tb *report.Table) error {
		if *format == "csv" {
			return tb.WriteCSV(stdout)
		}
		return tb.WriteText(stdout)
	}

	runTable1 := func() error {
		fmt.Fprintln(stdout, "== Table I: security tasks (Tripwire + Bro) ==")
		_, err := io.WriteString(stdout, experiments.FormatTable1())
		return err
	}

	runFig1 := func() error {
		fmt.Fprintf(stdout, "\n== Fig. 1: UAV case study, detection-time ECDF (%s) ==\n", strings.Join(schemeList, " vs "))
		res, err := experiments.RunFig1(experiments.Fig1Config{
			Cores: coreList, Schemes: schemeList, Attacks: *attacks, Seed: *seed, Workers: *workers,
			ResultsVersion: *resultsVersion,
		})
		if err != nil {
			return err
		}
		header := []string{"cores"}
		for _, s := range schemeList {
			header = append(header, s+"_mean_ms")
		}
		header = append(header, "improvement")
		for _, s := range schemeList {
			header = append(header, s+"_censored")
		}
		summary := report.NewTable(header...)
		for _, row := range res.Rows {
			fields := []string{fmt.Sprintf("%d", row.M)}
			for _, sc := range row.Schemes {
				fields = append(fields, report.F(sc.MeanDetection))
			}
			fields = append(fields, report.Pct(row.ImprovementPct))
			for _, sc := range row.Schemes {
				fields = append(fields, fmt.Sprintf("%d", sc.Censored))
			}
			summary.AddRowf("%s", strings.Join(fields, "\t"))
		}
		if err := emit(summary); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nECDF series (detection time ms -> empirical CDF):")
		for _, row := range res.Rows {
			header := []string{"detection_ms"}
			for _, s := range schemeList {
				header = append(header, fmt.Sprintf("%s_M%d", s, row.M))
			}
			tb := report.NewTable(header...)
			for i := range row.Schemes[0].Series {
				fields := []string{fmt.Sprintf("%.0f", row.Schemes[0].Series[i][0])}
				for _, sc := range row.Schemes {
					fields = append(fields, report.F(sc.Series[i][1]))
				}
				tb.AddRowf("%s", strings.Join(fields, "\t"))
			}
			if err := emit(tb); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}

	runFig2 := func() error {
		fmt.Fprintln(stdout, "\n== Fig. 2: improvement in acceptance ratio vs total utilization ==")
		for _, m := range coreList {
			pts, err := experiments.RunFig2(experiments.Fig2Config{
				M: m, TasksetsPerPoint: *tasksets, Seed: *seed, Schemes: schemeList, Workers: *workers,
				ResultsVersion: *resultsVersion,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\n-- %d cores --\n", m)
			header := []string{"total_util", "generated"}
			for _, s := range schemeList {
				header = append(header, s+"_ratio")
			}
			header = append(header, "improvement")
			tb := report.NewTable(header...)
			for _, p := range pts {
				fields := []string{report.F(p.TotalUtil), fmt.Sprintf("%d", p.Generated)}
				for i := range schemeList {
					fields = append(fields, report.F(p.Ratio(i)))
				}
				fields = append(fields, report.Pct(p.ImprovementPct))
				tb.AddRowf("%s", strings.Join(fields, "\t"))
			}
			if err := emit(tb); err != nil {
				return err
			}
		}
		return nil
	}

	runFig3 := func() error {
		fmt.Fprintf(stdout, "\n== Fig. 3: cumulative-tightness gap, %s vs optimal (M=2, NS in [2,6]) ==\n", schemeList[0])
		pts, err := experiments.RunFig3(experiments.Fig3Config{
			TasksetsPerPoint: max(1, *tasksets/4), Seed: *seed, Scheme: schemeList[0],
			RefineJointGP: *refine, Workers: *workers, ResultsVersion: *resultsVersion,
		})
		if err != nil {
			return err
		}
		tb := report.NewTable("total_util", "compared", "mean_gap", "max_gap")
		for _, p := range pts {
			tb.AddRowf("%s\t%d\t%s\t%s", report.F(p.TotalUtil), p.Compared, report.Pct(p.MeanGapPct), report.Pct(p.MaxGapPct))
		}
		return emit(tb)
	}

	runAblation := func() error {
		fmt.Fprintln(stdout, "\n== Ablation: allocation scheme x RT-partition heuristic (DESIGN.md §5) ==")
		for _, m := range coreList {
			cells, err := experiments.RunAblation(experiments.AblationConfig{
				M: m, TasksetsPerCell: max(1, *tasksets/2), Seed: *seed, Workers: *workers,
				ResultsVersion: *resultsVersion,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\n-- %d cores, U = 0.8M --\n", m)
			tb := report.NewTable("scheme", "rt_heuristic", "acceptance", "mean_tightness")
			for _, c := range cells {
				tb.AddRowf("%s\t%s\t%s\t%s", c.Scheme, c.Heuristic,
					report.F(c.AcceptanceRatio()), report.F(c.MeanTightness))
			}
			if err := emit(tb); err != nil {
				return err
			}
		}
		return nil
	}

	runOnline := func() error {
		schemes, err := onlineSchemes(schemeList)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n== Online churn: dynamic task arrival/departure (%s) ==\n", strings.Join(schemes, " vs "))
		for _, m := range coreList {
			res, err := experiments.RunOnline(experiments.OnlineConfig{
				M: m, Schemes: schemes, SystemsPerCell: max(1, *tasksets/25),
				Seed: *seed, Workers: *workers, ResultsVersion: *resultsVersion,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\n-- %d cores --\n", m)
			// inc_us/cold_us/speedup come from the result's machine-relative
			// timing section; everything left of them is seed-deterministic.
			tb := report.NewTable("scheme", "total_util", "depart_rate", "systems", "acceptance", "cold_allocs", "inc_us", "cold_us", "speedup")
			for i, p := range res.Points {
				tm := res.Timing[i]
				tb.AddRowf("%s\t%s\t%s\t%d\t%s\t%d\t%.1f\t%.1f\t%.1fx",
					p.Scheme, report.F(p.TotalUtil), report.F(p.DepartRate), p.Systems,
					report.F(p.AcceptanceRatio), p.ColdAllocations, tm.IncrementalMeanUS, tm.ColdMeanUS, tm.SpeedupX)
			}
			if err := emit(tb); err != nil {
				return err
			}
		}
		return nil
	}

	switch *which {
	case "table1":
		return runTable1()
	case "fig1":
		return runFig1()
	case "fig2":
		return runFig2()
	case "fig3":
		return runFig3()
	case "ablation":
		return runAblation()
	case "online":
		return runOnline()
	case "all":
		for _, f := range []func() error{runTable1, runFig1, runFig2, runFig3, runAblation} {
			if err := f(); err != nil {
				return err
			}
		}
		// The online stage needs incrementally admissible schemes; a -schemes
		// list without any (valid for every other experiment) skips it with a
		// notice instead of failing the whole run after five experiments.
		if _, err := onlineSchemes(schemeList); err != nil {
			fmt.Fprintf(stdout, "\n== Online churn: skipped (%v) ==\n", err)
			return nil
		}
		return runOnline()
	default:
		return fmt.Errorf("unknown experiment %q", *which)
	}
}

// onlineSchemes filters the -schemes list down to the schemes the online
// admission layer supports (the CLI default includes "singlecore", which has
// no incremental step); an explicitly unusable list is an error rather than
// a silent fallback.
func onlineSchemes(schemeList []string) ([]string, error) {
	supported := map[string]bool{}
	for _, name := range online.SupportedSchemes() {
		supported[name] = true
	}
	var out []string
	for _, name := range schemeList {
		if supported[name] {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("none of the schemes %v supports online admission (want a subset of %v)",
			schemeList, online.SupportedSchemes())
	}
	return out, nil
}

// campaignConfig maps the CLI flags onto the named spec's JSON config,
// mirroring what the non-campaign code paths run (fig2, ablation and online
// campaigns cover the first -cores entry; run one campaign per M for the
// full figure).
func campaignConfig(which string, coreList []int, schemeList []string, seed int64, tasksets, attacks, workers int, refine bool, resultsVersion int) (json.RawMessage, error) {
	var cfg any
	switch which {
	case "table1":
		return nil, nil
	case "fig1":
		cfg = experiments.Fig1Config{Cores: coreList, Schemes: schemeList, Attacks: attacks, Seed: seed, Workers: workers, ResultsVersion: resultsVersion}
	case "fig2":
		cfg = experiments.Fig2Config{M: coreList[0], TasksetsPerPoint: tasksets, Seed: seed, Schemes: schemeList, Workers: workers, ResultsVersion: resultsVersion}
	case "fig3":
		cfg = experiments.Fig3Config{TasksetsPerPoint: max(1, tasksets/4), Seed: seed, Scheme: schemeList[0], RefineJointGP: refine, Workers: workers, ResultsVersion: resultsVersion}
	case "ablation":
		cfg = experiments.AblationConfig{M: coreList[0], TasksetsPerCell: max(1, tasksets/2), Seed: seed, Workers: workers, ResultsVersion: resultsVersion}
	case "online":
		schemes, err := onlineSchemes(schemeList)
		if err != nil {
			return nil, err
		}
		cfg = experiments.OnlineConfig{M: coreList[0], Schemes: schemes, SystemsPerCell: max(1, tasksets/25), Seed: seed, Workers: workers, ResultsVersion: resultsVersion}
	default:
		return nil, fmt.Errorf("-checkpoint needs a single experiment (table1, fig1, fig2, fig3, ablation or online), got %q", which)
	}
	return json.Marshal(cfg)
}

// startCampaign creates and runs a checkpointed campaign; an interrupted run
// (SIGINT) leaves the directory resumable with -resume.
func startCampaign(dir, spec string, config json.RawMessage, stdout io.Writer) error {
	c, err := jobs.Create(dir, spec, config)
	if err != nil {
		return err
	}
	return runCampaign(c, stdout)
}

// resumeCampaign continues an interrupted campaign from its directory.
func resumeCampaign(dir string, stdout io.Writer) error {
	c, err := jobs.Open(dir)
	if err != nil {
		return err
	}
	return runCampaign(c, stdout)
}

// runCampaign drives a campaign to completion under SIGINT/SIGTERM
// cancellation (the campaign checkpoints between cells, staying resumable)
// and prints the result document.
func runCampaign(c *jobs.Campaign, stdout io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var last jobs.Progress
	body, err := c.Run(ctx, func(p jobs.Progress) { last = p })
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("campaign interrupted at %d/%d cells; resume with -resume %s", last.Done, last.Total, c.Dir())
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign complete: %d cells (%d replayed from checkpoint), result in %s\n",
		last.Done, last.Replayed, c.Dir())
	_, err = stdout.Write(body)
	return err
}

func parseCores(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, err := strconv.Atoi(part)
		if err != nil || m < 2 {
			return nil, fmt.Errorf("invalid core count %q (need integers >= 2)", part)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no core counts given")
	}
	return out, nil
}

// parseSchemes splits and validates the -schemes list against the registry.
func parseSchemes(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no schemes given")
	}
	if _, err := core.Resolve(out...); err != nil {
		return nil, err
	}
	return out, nil
}
