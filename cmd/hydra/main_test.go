package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydra/internal/tasksetio"
)

const sampleDoc = `{
  "cores": 2,
  "rt_tasks": [
    {"name": "ctl", "wcet_ms": 5, "period_ms": 20},
    {"name": "nav", "wcet_ms": 30, "period_ms": 100}
  ],
  "security_tasks": [
    {"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000},
    {"name": "bro", "wcet_ms": 30, "desired_period_ms": 500, "max_period_ms": 5000}
  ]
}`

func runCLI(t *testing.T, args []string, stdin string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, strings.NewReader(stdin), &sb)
	return sb.String(), err
}

func TestSchemesOnStdin(t *testing.T) {
	for _, scheme := range []string{"hydra", "singlecore", "opt"} {
		out, err := runCLI(t, []string{"-scheme", scheme}, sampleDoc)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !strings.Contains(out, "cumulative tightness") {
			t.Fatalf("%s output missing summary:\n%s", scheme, out)
		}
		if !strings.Contains(out, "tw") || !strings.Contains(out, "bro") {
			t.Fatalf("%s output missing tasks:\n%s", scheme, out)
		}
	}
}

func TestInputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "taskset.json")
	if err := os.WriteFile(path, []byte(sampleDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, []string{"-input", path}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hydra") {
		t.Fatalf("output:\n%s", out)
	}
	if _, err := runCLI(t, []string{"-input", filepath.Join(t.TempDir(), "missing.json")}, ""); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestCSVFormat(t *testing.T) {
	out, err := runCLI(t, []string{"-format", "csv"}, sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "task,core,period_ms") {
		t.Fatalf("csv output:\n%s", out)
	}
}

func TestGPFlagAgrees(t *testing.T) {
	plain, err := runCLI(t, nil, sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := runCLI(t, []string{"-gp"}, sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	// Each header names the scheme that ran. Periods are printed with 3
	// decimals; closed form and GP agree to that, so everything else matches.
	plainHead, plainRest, _ := strings.Cut(plain, "\n")
	gpHead, gpRest, _ := strings.Cut(gp, "\n")
	plainTail, okPlain := strings.CutPrefix(plainHead, "scheme: hydra ")
	gpTail, okGP := strings.CutPrefix(gpHead, "scheme: hydra-gp ")
	if !okPlain || !okGP {
		t.Fatalf("headers must name hydra and hydra-gp:\n%s\n%s", plainHead, gpHead)
	}
	if plainTail != gpTail || plainRest != gpRest {
		t.Fatalf("closed form and GP outputs differ:\n%s\nvs\n%s", plain, gp)
	}
}

func TestPoliciesAndHeuristics(t *testing.T) {
	for _, pol := range []string{"best-tightness", "first-feasible", "least-loaded"} {
		if _, err := runCLI(t, []string{"-policy", pol}, sampleDoc); err != nil {
			t.Fatalf("policy %s: %v", pol, err)
		}
	}
	for _, h := range []string{"first-fit", "best-fit", "worst-fit", "next-fit"} {
		if _, err := runCLI(t, []string{"-heuristic", h}, sampleDoc); err != nil {
			t.Fatalf("heuristic %s: %v", h, err)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	out, err := runCLI(t, []string{"-json"}, sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := tasksetio.DecodeResult(strings.NewReader(out))
	if err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if !rj.Schedulable || rj.Scheme != "hydra" || len(rj.Tasks) != 2 || len(rj.RTPartition) != 2 {
		t.Fatalf("unexpected JSON result: %+v", rj)
	}
	// Unschedulable verdicts are JSON too under -json.
	doc := `{
	  "cores": 1,
	  "rt_tasks": [{"name": "a", "wcet_ms": 90, "period_ms": 100}],
	  "security_tasks": [{"name": "s", "wcet_ms": 50, "desired_period_ms": 100, "max_period_ms": 120}]
	}`
	out, err = runCLI(t, []string{"-json"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	rj, err = tasksetio.DecodeResult(strings.NewReader(out))
	if err != nil {
		t.Fatalf("-json unschedulable output does not parse: %v\n%s", err, out)
	}
	if rj.Schedulable || rj.Reason == "" {
		t.Fatalf("unexpected JSON verdict: %+v", rj)
	}
	// The explain trace is plain text; mixing it with -json is refused.
	if _, err := runCLI(t, []string{"-json", "-explain"}, sampleDoc); err == nil {
		t.Fatal("-json with -explain must error")
	}
}

func TestUnschedulableReported(t *testing.T) {
	doc := `{
	  "cores": 2,
	  "rt_tasks": [
	    {"name": "a", "wcet_ms": 90, "period_ms": 100},
	    {"name": "b", "wcet_ms": 90, "period_ms": 100}
	  ],
	  "security_tasks": [
	    {"name": "s", "wcet_ms": 50, "desired_period_ms": 100, "max_period_ms": 200}
	  ]
	}`
	out, err := runCLI(t, nil, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "UNSCHEDULABLE") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-scheme", "bogus"},
		{"-policy", "bogus"},
		{"-heuristic", "bogus"},
		{"-format", "bogus"},
		// Modifier flags of one scheme are refused with any other.
		{"-scheme", "opt", "-explain"},
		{"-scheme", "hydra-gp", "-policy", "least-loaded"},
		{"-scheme", "hydra", "-refine"},
		{"-scheme", "singlecore", "-gp"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args, sampleDoc); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
	if _, err := runCLI(t, nil, "{"); err == nil {
		t.Error("bad JSON must error")
	}
}

func TestRefineOpt(t *testing.T) {
	out, err := runCLI(t, []string{"-scheme", "opt", "-refine"}, sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "opt") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestExplainFlag(t *testing.T) {
	out, err := runCLI(t, []string{"-explain"}, sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "* core") || !strings.Contains(out, "cumulative tightness") {
		t.Fatalf("explain output incomplete:\n%s", out)
	}
	// Infeasible workload: the trace plus the verdict, no panic.
	doc := `{
	  "cores": 2,
	  "rt_tasks": [
	    {"name": "a", "wcet_ms": 90, "period_ms": 100},
	    {"name": "b", "wcet_ms": 90, "period_ms": 100}
	  ],
	  "security_tasks": [
	    {"name": "s", "wcet_ms": 50, "desired_period_ms": 100, "max_period_ms": 200}
	  ]
	}`
	out, err = runCLI(t, []string{"-explain"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hint:") || !strings.Contains(out, "UNSCHEDULABLE") {
		t.Fatalf("explain infeasible output:\n%s", out)
	}
	// The trace only describes the default configuration; combinations that
	// would allocate differently are refused rather than mis-explained.
	if _, err := runCLI(t, []string{"-explain", "-policy", "least-loaded"}, sampleDoc); err == nil {
		t.Fatal("-explain with a non-default policy must error")
	}
	if _, err := runCLI(t, []string{"-explain", "-gp"}, sampleDoc); err == nil {
		t.Fatal("-explain with -gp must error")
	}
}
