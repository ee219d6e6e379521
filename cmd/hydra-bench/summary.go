package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// summaryRow is one (workload, metric) over the runs of a -repeat pass.
type summaryRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	IQRShare float64   `json:"iqr_share"`   // (q3 - q1) / median
	Range    float64   `json:"range_share"` // (max - min) / median
	Bound    float64   `json:"bound,omitempty"`
	Flag     string    `json:"flag,omitempty"` // iqr_share above the bound, or above a third of it
}

// readBounds returns the end-to-end regression bounds of BENCHMARK.json at
// the repository root (none when the file is absent).
func readBounds(root string) map[string]float64 {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// summarize computes each (workload, metric)'s median, quartiles and spread
// over the runs. A spread is flagged when the distance between the quartiles
// exceeds the metric's bound, or a third of it: at that width two sets of
// runs of the same commit can disagree by more than the bound.
func summarize(results []result, bounds map[string]float64) []summaryRow {
	var rows []summaryRow
	var order []string
	byWorkload := map[string][]result{}
	for _, r := range results {
		if _, seen := byWorkload[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, w := range order {
		rs := byWorkload[w]
		defs := endToEnd
		if rs[0].Trace {
			defs = perLayer
		}
		for _, m := range defs {
			row := summaryRow{Workload: w, Metric: m.name, Unit: m.unit}
			for _, r := range rs {
				row.Values = append(row.Values, r.Metrics[m.name])
			}
			row.Q1, row.Median, row.Q3 = quartiles(row.Values)
			sorted := append([]float64(nil), row.Values...)
			sort.Float64s(sorted)
			row.Min, row.Max = sorted[0], sorted[len(sorted)-1]
			row.IQRShare = ratio(row.Q3-row.Q1, row.Median)
			row.Range = ratio(row.Max-row.Min, row.Median)
			if b, ok := bounds[m.name]; ok {
				row.Bound = b
				switch {
				case row.IQRShare > b:
					row.Flag = "OVER BOUND"
				case row.IQRShare > b/3:
					row.Flag = "above bound/3"
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func printSummary(w io.Writer, rows []summaryRow) {
	fmt.Fprintf(w, "\n== spread over runs ==\n  %s%s%s%s%s%s%s%s%s\n", pad("workload", 17), pad("metric", 30), pad("median", 14),
		pad("q1", 14), pad("q3", 14), pad("min", 14), pad("max", 14), pad("iqr/med", 9), "range/med  bound  flag")
	for _, r := range rows {
		bound := "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.2f", r.Bound)
		}
		fmt.Fprintf(w, "  %s%s%s%s%s%s%s%s%s%s%s\n", pad(r.Workload, 17), pad(r.Metric, 30), pad(fmt.Sprintf("%.6g", r.Median), 14),
			pad(fmt.Sprintf("%.6g", r.Q1), 14), pad(fmt.Sprintf("%.6g", r.Q3), 14), pad(fmt.Sprintf("%.6g", r.Min), 14),
			pad(fmt.Sprintf("%.6g", r.Max), 14), pad(fmt.Sprintf("%.3f", r.IQRShare), 9), pad(fmt.Sprintf("%.3f", r.Range), 11), pad(bound, 7), r.Flag)
	}
}
