// Package tasksetio reads and writes taskset problem descriptions as JSON,
// the interchange format of the cmd/hydra tool. A document carries the
// platform size, real-time tasks (optionally with a fixed partition) and
// security tasks.
package tasksetio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"hydra/internal/partition"
	"hydra/internal/rts"
)

// RTTaskJSON mirrors rts.RTTask in milliseconds-based JSON.
type RTTaskJSON struct {
	Name     string  `json:"name"`
	WCET     float64 `json:"wcet_ms"`
	Period   float64 `json:"period_ms"`
	Deadline float64 `json:"deadline_ms,omitempty"` // defaults to the period
}

// Task converts j to the model task; a zero deadline is the period.
func (j RTTaskJSON) Task() rts.RTTask {
	d := j.Deadline
	if d == 0 {
		d = j.Period
	}
	return rts.RTTask{Name: j.Name, C: j.WCET, T: j.Period, D: d}
}

// RTTaskToJSON is the wire form of t; a deadline equal to the period is left
// out.
func RTTaskToJSON(t rts.RTTask) RTTaskJSON {
	j := RTTaskJSON{Name: t.Name, WCET: t.C, Period: t.T}
	if t.D != t.T {
		j.Deadline = t.D
	}
	return j
}

// SecurityTaskJSON mirrors rts.SecurityTask.
type SecurityTaskJSON struct {
	Name          string  `json:"name"`
	WCET          float64 `json:"wcet_ms"`
	DesiredPeriod float64 `json:"desired_period_ms"`
	MaxPeriod     float64 `json:"max_period_ms"`
	Weight        float64 `json:"weight,omitempty"`
}

// Task converts j to the model task.
func (j SecurityTaskJSON) Task() rts.SecurityTask {
	return rts.SecurityTask{Name: j.Name, C: j.WCET, TDes: j.DesiredPeriod, TMax: j.MaxPeriod, Weight: j.Weight}
}

// SecurityTaskToJSON is the wire form of t.
func SecurityTaskToJSON(t rts.SecurityTask) SecurityTaskJSON {
	return SecurityTaskJSON{Name: t.Name, WCET: t.C, DesiredPeriod: t.TDes, MaxPeriod: t.TMax, Weight: t.Weight}
}

// Document is one allocation problem.
type Document struct {
	Cores         int                `json:"cores"`
	RTTasks       []RTTaskJSON       `json:"rt_tasks"`
	SecurityTasks []SecurityTaskJSON `json:"security_tasks"`
	// RTPartition optionally pins each real-time task to a core; when
	// omitted the consumer partitions with a heuristic.
	RTPartition []int `json:"rt_partition,omitempty"`
}

// Decode parses a document and converts it to model types. It returns the
// platform size, tasks, and the optional fixed partition (nil when absent).
func Decode(r io.Reader) (*Problem, error) {
	var doc Document
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("tasksetio: parse: %w", err)
	}
	return doc.ToProblem()
}

// Problem is the decoded, validated model form of a Document.
type Problem struct {
	M           int
	RT          []rts.RTTask
	Sec         []rts.SecurityTask
	RTPartition []int // nil when the document left partitioning open
}

// ToProblem validates and converts the document.
func (d *Document) ToProblem() (*Problem, error) {
	if d.Cores <= 0 {
		return nil, fmt.Errorf("tasksetio: cores must be positive, got %d", d.Cores)
	}
	p := &Problem{M: d.Cores, RT: withCap[rts.RTTask](len(d.RTTasks)), Sec: withCap[rts.SecurityTask](len(d.SecurityTasks))}
	for _, t := range d.RTTasks {
		p.RT = append(p.RT, t.Task())
	}
	var weights float64
	for _, s := range d.SecurityTasks {
		t := s.Task()
		weights += t.EffectiveWeight()
		p.Sec = append(p.Sec, t)
	}
	if err := rts.ValidateAll(p.RT, p.Sec); err != nil {
		return nil, err
	}
	// The cumulative tightness Σ ω·η is reported as a JSON number, so it must
	// be finite; since η ≤ 1, a finite Σ ω keeps it so.
	if math.IsInf(weights, 0) {
		return nil, fmt.Errorf("tasksetio: security task weights sum to %g; their sum must be finite", weights)
	}
	if d.RTPartition != nil {
		if len(d.RTPartition) != len(p.RT) {
			return nil, fmt.Errorf("tasksetio: rt_partition has %d entries for %d tasks", len(d.RTPartition), len(p.RT))
		}
		for i, c := range d.RTPartition {
			if c < 0 || c >= d.Cores {
				return nil, fmt.Errorf("tasksetio: rt_partition[%d] = %d outside [0,%d)", i, c, d.Cores)
			}
		}
		p.RTPartition = append([]int(nil), d.RTPartition...)
	}
	return p, nil
}

// withCap returns an empty slice with capacity n, or nil when n is 0: it
// presizes an appended-to list while keeping an empty list nil.
func withCap[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// Partition returns the document's fixed partition once every core of it
// passes exact RTA, or computes one with the heuristic when the document left
// it open.
func (p *Problem) Partition(h partition.Heuristic) ([]int, error) {
	if p.RTPartition != nil {
		pinned := partition.Partition{M: p.M, CoreOf: p.RTPartition}
		if err := pinned.Validate(p.RT); err != nil {
			return nil, err
		}
		return p.RTPartition, nil
	}
	part, err := partition.PartitionRT(p.RT, p.M, h)
	if err != nil {
		return nil, err
	}
	return part.CoreOf, nil
}

// Encode serializes a Problem back to a Document and writes it as indented
// JSON.
func Encode(w io.Writer, p *Problem) error {
	doc := Document{Cores: p.M, RTPartition: p.RTPartition}
	for _, t := range p.RT {
		doc.RTTasks = append(doc.RTTasks, RTTaskToJSON(t))
	}
	for _, s := range p.Sec {
		doc.SecurityTasks = append(doc.SecurityTasks, SecurityTaskToJSON(s))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
