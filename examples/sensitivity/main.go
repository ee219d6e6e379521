// Sensitivity analysis: the paper notes that an unschedulability verdict
// "will provide hints to the designers to update the parameters of security
// tasks" (Sec. III-B). This example shows that workflow on the avionics
// workload:
//
//  1. measure the platform's security headroom (breakdown WCET scale);
//  2. overload it deliberately, observe the unschedulable verdict;
//  3. ask the library for the minimal Tmax relaxation that restores
//     feasibility, and inspect the per-core slack left afterwards.
//
// Run with:
//
//	go run ./examples/sensitivity
package main

import (
	"fmt"
	"log"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/workloads"
)

func main() {
	w, err := workloads.Get("avionics")
	if err != nil {
		log.Fatal(err)
	}
	const m = 2
	part, err := partition.PartitionRT(w.RT, m, partition.BestFit)
	if err != nil {
		log.Fatal(err)
	}
	in, err := core.NewInput(m, w.RT, part.CoreOf, w.Sec)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Headroom: how much heavier could every security scan get?
	k, err := core.BreakdownSecurityScale(in, core.HydraOptions{}, 32, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("avionics workload on %d cores\n", m)
	fmt.Printf("1. breakdown security-WCET scale: %.2fx (every scan could grow %.0f%% before HYDRA fails)\n\n",
		k, (k-1)*100)

	// 2. Deliberate overload: double WCETs beyond the breakdown point and
	// tighten Tmax so period adaptation has no room.
	over := make([]rts.SecurityTask, len(w.Sec))
	for i, s := range w.Sec {
		over[i] = s
		over[i].C = s.C * (k + 1)
		over[i].TMax = s.TDes * 1.2
		if over[i].C > over[i].TDes {
			over[i].C = over[i].TDes * 0.9
		}
	}
	overIn, err := core.NewInput(m, w.RT, part.CoreOf, over)
	if err != nil {
		log.Fatal(err)
	}
	res := core.Hydra(overIn, core.HydraOptions{})
	fmt.Printf("2. overloaded variant: schedulable=%v\n", res.Schedulable)
	if !res.Schedulable {
		fmt.Printf("   verdict: %s\n\n", res.Reason)
	}

	// 3. Designer hint: minimal uniform Tmax relaxation.
	rel, ok, err := core.SuggestTMaxRelaxation(overIn, core.HydraOptions{}, 64, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		fmt.Println("3. no Tmax relaxation up to 64x restores feasibility —")
		fmt.Println("   the security WCETs themselves must shrink (or add cores).")
	} else {
		fmt.Printf("3. minimal Tmax relaxation: %.2fx restores schedulability\n", rel.TMaxFactor)
		fmt.Printf("   resulting cumulative tightness: %.3f\n", rel.Result.Cumulative)
		slack, err := core.SecuritySlack(overInWithTMax(overIn, rel.TMaxFactor), rel.Result)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   remaining per-core utilization slack: %v\n", fmtSlack(slack))
	}
}

// overInWithTMax clones the input with every security TMax scaled.
func overInWithTMax(in *core.Input, f float64) *core.Input {
	sec := make([]rts.SecurityTask, len(in.Sec))
	for i, s := range in.Sec {
		sec[i] = s
		sec[i].TMax = s.TMax * f
	}
	out, err := core.NewInput(in.M, in.RT, in.RTPartition, sec)
	if err != nil {
		log.Fatal(err)
	}
	return out
}

func fmtSlack(s []float64) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[i] = fmt.Sprintf("%.2f", v)
	}
	return out
}
