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
	"hydra/internal/stats"
	"hydra/internal/taskgen"
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

// TestBuildInputLeavesProblemAlone: BuildInput does not record the
// heuristic's partition in the Problem, so a Problem reused across
// heuristics is packed by each heuristic anew rather than pinned to the
// first one's packing.
func TestBuildInputLeavesProblemAlone(t *testing.T) {
	p, err := Decode(strings.NewReader(`{
	  "cores": 3,
	  "rt_tasks": [
	    {"name": "a", "wcet_ms": 30, "period_ms": 100},
	    {"name": "b", "wcet_ms": 30, "period_ms": 100},
	    {"name": "c", "wcet_ms": 20, "period_ms": 100},
	    {"name": "d", "wcet_ms": 10, "period_ms": 100}
	  ],
	  "security_tasks": []
	}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []partition.Heuristic{partition.BestFit, partition.WorstFit} {
		in, err := BuildInput(p, core.MustLookup("hydra"), h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := partition.PartitionRT(p.RT, p.M, h)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(in.RTPartition, want.CoreOf) || p.RTPartition != nil {
			t.Fatalf("%s: BuildInput partition %v, want %v; problem partition %v", h, in.RTPartition, want.CoreOf, p.RTPartition)
		}
	}
}

// referenceResult is the result document as encoding/json writes it, the
// reference JSONWriter.Result must match: json.Encoder with
// SetIndent("", "  ") applied to rj, trailing newline included.
func referenceResult(rj *ResultJSON) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(rj)
	return buf.Bytes(), err
}

// renderResult is the result document as EncodeResult and the service
// write it, with the writer's verdict.
func renderResult(rj *ResultJSON) ([]byte, bool) {
	var jw JSONWriter
	jw.Result(rj)
	return append(jw.Buf, '\n'), jw.OK()
}

// TestResultRenderMatchesEncodingJSON pins JSONWriter.Result and
// EncodeResult to the encoding/json rendering of ResultToJSON over a taskgen
// corpus: M in {2, 4, 8}, U from 0.3·M to 1.2·M (so some answers are
// unschedulable, with a reason), every registered scheme, the four
// heuristics, and each problem both left to the heuristic and pinned to its
// partition. singlecore answers with a partition of its own, which the
// document records.
func TestResultRenderMatchesEncodingJSON(t *testing.T) {
	heuristics := []partition.Heuristic{partition.BestFit, partition.FirstFit, partition.WorstFit, partition.NextFit}
	var docs, schedulable, unschedulable, pinned, ownPartition int
	for _, m := range []int{2, 4, 8} {
		for step := 0; step < 4; step++ {
			u := (0.3 + 0.3*float64(step)) * float64(m)
			w, err := taskgen.Generate(taskgen.DefaultParams(m, u), stats.Split(int64(m), int64(step)))
			if err != nil {
				t.Fatalf("M=%d U=%g: %v", m, u, err)
			}
			for _, h := range heuristics {
				pins := [][]int{nil}
				if part, err := (&Problem{M: m, RT: w.RT, Sec: w.Sec}).Partition(h); err == nil {
					pins = append(pins, part)
					pinned++
				}
				for _, pin := range pins {
					for _, name := range core.Names() {
						// Kept fast: opt enumerates M^NS assignments, which at
						// M = 4 falls just under its cap of 2^20 and takes
						// seconds (at M = 8 it answers at once past the cap),
						// and a GP-solver scheme takes 40-200 ms a problem.
						if strings.HasPrefix(name, "opt") && m == 4 ||
							strings.HasSuffix(name, "-gp") && (h != partition.BestFit || pin != nil) {
							continue
						}
						// BuildInput leaves p alone, so each heuristic packs anew.
						p := &Problem{M: m, RT: w.RT, Sec: w.Sec, RTPartition: pin}
						alloc := core.MustLookup(name)
						var res *core.Result
						if in, err := BuildInput(p, alloc, h); err != nil {
							res = &core.Result{Scheme: name, Reason: err.Error()}
						} else {
							res = alloc.Allocate(in)
						}
						rj := ResultToJSON(p, res)
						want, err := referenceResult(rj)
						if err != nil {
							t.Fatalf("%s M=%d U=%g %s: encoding/json: %v", name, m, u, h, err)
						}
						if got, ok := renderResult(rj); !ok || !bytes.Equal(got, want) {
							t.Fatalf("%s M=%d U=%g %s: ok = %t, render\n%s\nencoding/json\n%s", name, m, u, h, ok, got, want)
						}
						var buf bytes.Buffer
						if err := EncodeResult(&buf, p, res); err != nil || !bytes.Equal(buf.Bytes(), want) {
							t.Fatalf("%s M=%d U=%g %s: EncodeResult = %v\n%s\nwant\n%s", name, m, u, h, err, buf.Bytes(), want)
						}
						docs++
						if res.Schedulable {
							schedulable++
						} else {
							unschedulable++
						}
						if res.Schedulable && name == "singlecore" && !slices.Equal(res.RTPartition, p.RTPartition) {
							ownPartition++
						}
					}
				}
			}
		}
	}
	t.Logf("%d documents: %d schedulable, %d unschedulable, %d pinned problems, %d with singlecore's own partition", docs, schedulable, unschedulable, pinned, ownPartition)
	if schedulable == 0 || unschedulable == 0 || pinned == 0 || ownPartition == 0 {
		t.Fatal("the corpus must hold schedulable and unschedulable answers, pinned problems and singlecore partitions")
	}
}
