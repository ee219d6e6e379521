package tasksetio

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hydra/internal/core"
	"hydra/internal/partition"
)

const resultSampleDoc = `{
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

func allocateSample(t *testing.T) (*Problem, *core.Result) {
	t.Helper()
	p, err := Decode(strings.NewReader(resultSampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	alloc := core.MustLookup("hydra")
	in, err := BuildInput(p, alloc, partition.BestFit)
	if err != nil {
		t.Fatal(err)
	}
	res := alloc.Allocate(in)
	if !res.Schedulable {
		t.Fatalf("sample taskset must be schedulable: %s", res.Reason)
	}
	return p, res
}

// decodeResult parses a ResultJSON document, refusing unknown fields.
func decodeResult(r io.Reader) (*ResultJSON, error) {
	var rj ResultJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return &rj, dec.Decode(&rj)
}

func TestResultRoundTrip(t *testing.T) {
	p, res := allocateSample(t)
	var buf bytes.Buffer
	if err := EncodeResult(&buf, p, res); err != nil {
		t.Fatal(err)
	}
	rj, err := decodeResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	back, err := rj.ToResult(p)
	if err != nil {
		t.Fatal(err)
	}
	// The effective RT partition is carried through the encoding even when
	// the scheme kept the caller's; mirror that for the comparison.
	want := *res
	want.RTPartition = core.EffectiveInput(&core.Input{M: p.M, RT: p.RT, RTPartition: p.RTPartition, Sec: p.Sec}, res).RTPartition
	if !reflect.DeepEqual(back.Assignment, want.Assignment) ||
		!reflect.DeepEqual(back.Periods, want.Periods) ||
		!reflect.DeepEqual(back.Tightness, want.Tightness) ||
		!reflect.DeepEqual(back.RTPartition, want.RTPartition) ||
		back.Scheme != want.Scheme || back.Schedulable != want.Schedulable ||
		back.Cumulative != want.Cumulative {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", back, want)
	}
	// The reconstructed result must still verify against the problem.
	in := &core.Input{M: p.M, RT: p.RT, RTPartition: p.RTPartition, Sec: p.Sec}
	if err := core.Verify(in, back); err != nil {
		t.Fatalf("round-tripped result fails verification: %v", err)
	}
}

func TestResultRoundTripUnschedulable(t *testing.T) {
	p, _ := allocateSample(t)
	res := &core.Result{Schedulable: false, Scheme: "hydra", Reason: "no core admits task tw"}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, p, res); err != nil {
		t.Fatal(err)
	}
	rj, err := decodeResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rj.ToResult(p)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schedulable || back.Reason != res.Reason || back.Scheme != "hydra" {
		t.Fatalf("got %+v", back)
	}
}

func TestResultToResultByNameReordering(t *testing.T) {
	p, res := allocateSample(t)
	rj := ResultToJSON(p, res)
	slices.Reverse(rj.Tasks) // "bro" before "tw": different order than input
	slices.Reverse(rj.RTPartition)
	back, err := rj.ToResult(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Assignment, res.Assignment) || !reflect.DeepEqual(back.Periods, res.Periods) {
		t.Fatalf("name-keyed reconstruction must be order independent:\ngot  %+v\nwant %+v", back, res)
	}
}

func TestResultToResultErrors(t *testing.T) {
	p, res := allocateSample(t)
	rj := ResultToJSON(p, res)
	rj.Tasks = rj.Tasks[:1]
	if _, err := rj.ToResult(p); err == nil {
		t.Fatal("truncated task list must error")
	}
	rj = ResultToJSON(p, res)
	rj.Tasks[0].Name = "ghost"
	if _, err := rj.ToResult(p); err == nil {
		t.Fatal("unknown task name must error")
	}
	rj = ResultToJSON(p, res)
	rj.RTPartition = rj.RTPartition[:1]
	if _, err := rj.ToResult(p); err == nil {
		t.Fatal("truncated rt partition must error")
	}
}

func TestLoadSharedSeam(t *testing.T) {
	p, err := Load("-", strings.NewReader(resultSampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if p.M != 2 || len(p.RT) != 2 || len(p.Sec) != 2 {
		t.Fatalf("unexpected problem: %+v", p)
	}
	if _, err := Load("/nonexistent/taskset.json", nil); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestBuildInputSelfPartitioningFallback(t *testing.T) {
	// Real-time load that no 2-core partition admits, so partitioning fails;
	// the self-partitioning singlecore scheme must still get an input.
	doc := `{
	  "cores": 2,
	  "rt_tasks": [
	    {"name": "a", "wcet_ms": 90, "period_ms": 100},
	    {"name": "b", "wcet_ms": 90, "period_ms": 100},
	    {"name": "c", "wcet_ms": 90, "period_ms": 100}
	  ],
	  "security_tasks": [
	    {"name": "s", "wcet_ms": 1, "desired_period_ms": 100, "max_period_ms": 200}
	  ]
	}`
	p, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildInput(p, core.MustLookup("hydra"), partition.BestFit); err == nil {
		t.Fatal("hydra on an unpartitionable RT set must error")
	}
	if _, err := BuildInput(p, core.MustLookup("singlecore"), partition.BestFit); err != nil {
		t.Fatalf("singlecore must run on the placeholder partition: %v", err)
	}
}
