package tasksetio

import (
	"errors"
	"fmt"
	"io"

	"hydra/internal/core"
)

// TaskResultJSON is the allocation outcome for one security task: the core it
// was placed on, its adapted period, and the achieved tightness. Accepted is
// per-task so future partial-acceptance schemes keep the same wire format;
// today it equals the result's Schedulable verdict for every task.
type TaskResultJSON struct {
	Name      string  `json:"name"`
	Core      int     `json:"core"`
	PeriodMS  float64 `json:"period_ms"`
	Tightness float64 `json:"tightness"`
	Accepted  bool    `json:"accepted"`
}

// RTPlacementJSON records which core a real-time task ended up on in the
// partition the scheme actually solved against (see core.Result.RTPartition).
type RTPlacementJSON struct {
	Name string `json:"name"`
	Core int    `json:"core"`
}

// ResultJSON is the interchange encoding of a core.Result — the response body
// of the allocation service and the -json output of cmd/hydra. Per-task
// entries carry task names so the document is meaningful independent of the
// ordering of the taskset it was computed from. JSONWriter.Result renders
// it without reflection, so its members and tags change together with that
// method.
type ResultJSON struct {
	Scheme              string            `json:"scheme"`
	Schedulable         bool              `json:"schedulable"`
	Reason              string            `json:"reason,omitempty"`
	CumulativeTightness float64           `json:"cumulative_tightness"`
	Tasks               []TaskResultJSON  `json:"tasks,omitempty"`
	RTPartition         []RTPlacementJSON `json:"rt_partition,omitempty"`
}

// ResultToJSON converts a core.Result (indexed by the input order of the
// problem it solved) to the named wire form. The RT partition recorded is the
// one the result was solved against, Result.RTPartition.
func ResultToJSON(p *Problem, res *core.Result) *ResultJSON {
	rj := &ResultJSON{
		Scheme:              res.Scheme,
		Schedulable:         res.Schedulable,
		Reason:              res.Reason,
		CumulativeTightness: res.Cumulative,
	}
	if res.Schedulable {
		rj.Tasks = make([]TaskResultJSON, 0, len(p.Sec))
		for i, s := range p.Sec {
			rj.Tasks = append(rj.Tasks, TaskResultJSON{
				Name:      s.Name,
				Core:      res.Assignment[i],
				PeriodMS:  res.Periods[i],
				Tightness: res.Tightness[i],
				Accepted:  true,
			})
		}
		if len(res.RTPartition) == len(p.RT) {
			rj.RTPartition = make([]RTPlacementJSON, 0, len(p.RT))
			for i, t := range p.RT {
				rj.RTPartition = append(rj.RTPartition, RTPlacementJSON{Name: t.Name, Core: res.RTPartition[i]})
			}
		}
	}
	return rj
}

// ToResult reconstructs a core.Result aligned with the given problem's task
// order, matching per-task entries by name. Duplicate names are matched
// positionally among equals (stable), so round-tripping any encodable result
// is lossless.
func (rj *ResultJSON) ToResult(p *Problem) (*core.Result, error) {
	res := &core.Result{
		Scheme:      rj.Scheme,
		Schedulable: rj.Schedulable,
		Reason:      rj.Reason,
		Cumulative:  rj.CumulativeTightness,
	}
	if !rj.Schedulable {
		return res, nil
	}
	if len(rj.Tasks) != len(p.Sec) {
		return nil, fmt.Errorf("tasksetio: result covers %d security tasks, problem has %d", len(rj.Tasks), len(p.Sec))
	}
	// Name -> queue of entry indices (stable for duplicates).
	byName := map[string][]int{}
	for i, t := range rj.Tasks {
		byName[t.Name] = append(byName[t.Name], i)
	}
	res.Assignment = make([]int, len(p.Sec))
	res.Periods = make([]float64, len(p.Sec))
	res.Tightness = make([]float64, len(p.Sec))
	for i, s := range p.Sec {
		q := byName[s.Name]
		if len(q) == 0 {
			return nil, fmt.Errorf("tasksetio: result has no entry for security task %q", s.Name)
		}
		e := rj.Tasks[q[0]]
		byName[s.Name] = q[1:]
		res.Assignment[i] = e.Core
		res.Periods[i] = e.PeriodMS
		res.Tightness[i] = e.Tightness
	}
	if len(rj.RTPartition) > 0 {
		if len(rj.RTPartition) != len(p.RT) {
			return nil, fmt.Errorf("tasksetio: result partitions %d real-time tasks, problem has %d", len(rj.RTPartition), len(p.RT))
		}
		rtByName := map[string][]int{}
		for i, t := range rj.RTPartition {
			rtByName[t.Name] = append(rtByName[t.Name], i)
		}
		res.RTPartition = make([]int, len(p.RT))
		for i, t := range p.RT {
			q := rtByName[t.Name]
			if len(q) == 0 {
				return nil, fmt.Errorf("tasksetio: result has no placement for real-time task %q", t.Name)
			}
			if c := rj.RTPartition[q[0]].Core; c < 0 || c >= p.M {
				return nil, fmt.Errorf("tasksetio: result places real-time task %q on core %d outside [0,%d)", t.Name, c, p.M)
			}
			res.RTPartition[i] = rj.RTPartition[q[0]].Core
			rtByName[t.Name] = q[1:]
		}
	}
	return res, nil
}

// EncodeResult writes the result document as the service sends it:
// JSONWriter.Result's rendering and a newline. It refuses a result holding a
// NaN or infinite float, as encoding/json does.
func EncodeResult(w io.Writer, p *Problem, res *core.Result) error {
	var jw JSONWriter
	jw.Result(ResultToJSON(p, res))
	if !jw.OK() {
		return errors.New("tasksetio: result holds a NaN or infinite float")
	}
	_, err := w.Write(append(jw.Buf, '\n'))
	return err
}
