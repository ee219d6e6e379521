package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hydra/internal/loadgen"
)

// TestSelfModeJSONReport: -self boots an in-process server, runs the mix, and
// the stdout JSON decodes into a sane report.
func TestSelfModeJSONReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-self", "-duration", "200ms", "-workers", "2",
		"-mix", "hit=0.8,cold=0.1,admit=0.1", "-seed", "7",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	var rep loadgen.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout.String())
	}
	if rep.Completed == 0 || rep.AchievedRPS <= 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors in self-mode run: %+v", rep)
	}
}

// TestSelfModeBenchLines: -bench emits only benchjson-parsable lines.
func TestSelfModeBenchLines(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-self", "-duration", "150ms",
		"-workers", "2", "-bench", "LoadgenSmoke",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := strings.TrimSpace(stdout.String())
	if out == "" {
		t.Fatal("no bench output")
	}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "BenchmarkLoadgenSmoke/") {
			t.Fatalf("unexpected stdout line %q (bench mode must print only benchmark lines)", line)
		}
		if !strings.Contains(line, "ns/op") || !strings.Contains(line, "req/s") {
			t.Fatalf("line %q lacks ns/op or req/s", line)
		}
	}
}

// TestBadFlags pins the CLI contract: conflicting or invalid flags error out
// before any traffic is generated.
func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{},                            // neither -url nor -self
		{"-url", "http://x", "-self"}, // both
		{"-self", "-mix", "bogus=1"},  // unknown mix class
		{"-self", "-mix", "hit"},      // malformed mix
		{"-self", "-duration", "0s"},  // run too short
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}
