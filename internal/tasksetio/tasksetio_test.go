package tasksetio

import (
	"bytes"
	"strings"
	"testing"

	"hydra/internal/partition"
)

const sample = `{
  "cores": 2,
  "rt_tasks": [
    {"name": "ctl", "wcet_ms": 5, "period_ms": 20},
    {"name": "nav", "wcet_ms": 10, "period_ms": 100, "deadline_ms": 80}
  ],
  "security_tasks": [
    {"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000, "weight": 2}
  ]
}`

func TestDecode(t *testing.T) {
	p, err := Decode(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if p.M != 2 || len(p.RT) != 2 || len(p.Sec) != 1 {
		t.Fatalf("problem = %+v", p)
	}
	if p.RT[0].D != 20 {
		t.Fatalf("implicit deadline not applied: %v", p.RT[0].D)
	}
	if p.RT[1].D != 80 {
		t.Fatalf("explicit deadline lost: %v", p.RT[1].D)
	}
	if p.Sec[0].Weight != 2 {
		t.Fatalf("weight lost: %v", p.Sec[0].Weight)
	}
	if p.RTPartition != nil {
		t.Fatal("no partition given, should be nil")
	}
	empty, err := Decode(strings.NewReader(`{"cores": 1, "rt_tasks": []}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Problem{empty, empty.Canonical()} {
		if q.RT != nil || q.Sec != nil {
			t.Fatalf("empty task lists should stay nil: %+v", q)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":         `{`,
		"unknown field":    `{"cores": 2, "bogus": 1}`,
		"zero cores":       `{"cores": 0}`,
		"invalid task":     `{"cores": 1, "rt_tasks": [{"name":"x","wcet_ms":0,"period_ms":10}]}`,
		"partition length": `{"cores": 1, "rt_tasks": [{"name":"x","wcet_ms":1,"period_ms":10}], "rt_partition": [0,0]}`,
		"partition range":  `{"cores": 1, "rt_tasks": [{"name":"x","wcet_ms":1,"period_ms":10}], "rt_partition": [3]}`,
		"invalid sec":      `{"cores": 1, "security_tasks": [{"name":"s","wcet_ms":1,"desired_period_ms":10,"max_period_ms":5}]}`,
	}
	for name, doc := range cases {
		if _, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeFixedPartition(t *testing.T) {
	doc := `{"cores": 2,
	  "rt_tasks": [{"name":"a","wcet_ms":1,"period_ms":10},{"name":"b","wcet_ms":1,"period_ms":10}],
	  "rt_partition": [1, 0]}`
	p, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	part, err := p.Partition(partition.BestFit)
	if err != nil {
		t.Fatal(err)
	}
	if part[0] != 1 || part[1] != 0 {
		t.Fatalf("fixed partition not honoured: %v", part)
	}
}

func TestPartitionComputed(t *testing.T) {
	p, err := Decode(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	part, err := p.Partition(partition.BestFit)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 2 {
		t.Fatalf("partition = %v", part)
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	p, err := Decode(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := Decode(&buf)
	if err != nil {
		t.Fatalf("round-trip decode: %v\n%s", err, buf.String())
	}
	if len(p2.RT) != len(p.RT) || len(p2.Sec) != len(p.Sec) || p2.M != p.M {
		t.Fatalf("round trip changed shape: %+v vs %+v", p2, p)
	}
	if p2.RT[1].D != 80 || p2.Sec[0].Weight != 2 {
		t.Fatal("round trip lost fields")
	}
}
