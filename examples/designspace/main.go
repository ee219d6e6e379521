// Design-space exploration: the decisions a system designer faces when
// retrofitting security tasks into a multicore RTS, explored with this
// library on synthetic workloads (paper Sec. IV-B parameters):
//
//  1. core-commitment policy ablation (HYDRA best-tightness vs first-feasible
//     vs least-loaded);
//  2. real-time partition heuristic ablation (first/best/worst/next-fit);
//  3. the Sec. V extensions: non-preemptive security execution cost, and
//     runtime slack reclamation (migrating security jobs) vs static HYDRA
//     pinning, measured as intrusion-detection latency on the UAV case study.
//
// Run with:
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"

	"hydra/internal/core"
	"hydra/internal/detect"
	"hydra/internal/experiments"
	"hydra/internal/partition"
	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
	"hydra/internal/uav"
)

const (
	m            = 4
	tasksetCount = 150
	seed         = 2024
)

func main() {
	policyAblation()
	heuristicAblation()
	nonPreemptiveCost()
	slackReclamation()
}

// policyAblation compares allocation schemes — selected by name from the
// allocator registry — by acceptance ratio and cumulative tightness at a
// demanding utilization. Besides HYDRA's three commitment policies it
// includes the no-period-adaptation bin-packing baseline, quantifying what
// the paper's period adaptation buys.
func policyAblation() {
	fmt.Printf("1. Allocation-scheme ablation (%d cores, U=0.85M, %d tasksets)\n", m, tasksetCount)
	schemes, err := core.Resolve(
		"hydra", "hydra-first-feasible", "hydra-least-loaded", "partition-best-fit")
	if err != nil {
		log.Fatal(err)
	}
	accepted := make([]int, len(schemes))
	tightness := make([]float64, len(schemes))
	total := 0
	for t := 0; t < tasksetCount; t++ {
		rng := stats.SplitRNG(seed, int64(t))
		w, err := taskgen.Generate(taskgen.DefaultParams(m, 0.85*m), rng)
		if err != nil {
			continue
		}
		part, err := partition.PartitionRT(w.RT, m, partition.BestFit)
		if err != nil {
			continue
		}
		in, err := core.NewInput(m, w.RT, part.CoreOf, w.Sec)
		if err != nil {
			log.Fatal(err)
		}
		total++
		for si, scheme := range schemes {
			r := scheme.Allocate(in)
			if r.Schedulable {
				accepted[si]++
				tightness[si] += r.Cumulative / float64(len(w.Sec))
			}
		}
	}
	for si, scheme := range schemes {
		mean := 0.0
		if accepted[si] > 0 {
			mean = tightness[si] / float64(accepted[si])
		}
		fmt.Printf("   %-22s acceptance %5.1f%%   mean per-task tightness %.3f\n",
			scheme.Name(), 100*float64(accepted[si])/float64(total), mean)
	}
	fmt.Println()
}

// heuristicAblation shows how the *real-time* partition heuristic changes
// the security headroom HYDRA finds.
func heuristicAblation() {
	fmt.Printf("2. RT-partition heuristic ablation (%d cores, U=0.8M, %d tasksets)\n", m, tasksetCount)
	heuristics := []partition.Heuristic{partition.FirstFit, partition.BestFit, partition.WorstFit, partition.NextFit}
	for _, h := range heuristics {
		accepted, total := 0, 0
		sumTight := 0.0
		for t := 0; t < tasksetCount; t++ {
			rng := stats.SplitRNG(seed+1, int64(t))
			w, err := taskgen.Generate(taskgen.DefaultParams(m, 0.8*m), rng)
			if err != nil {
				continue
			}
			total++
			part, err := partition.PartitionRT(w.RT, m, h)
			if err != nil {
				continue
			}
			in, err := core.NewInput(m, w.RT, part.CoreOf, w.Sec)
			if err != nil {
				log.Fatal(err)
			}
			if r := core.Hydra(in, core.HydraOptions{}); r.Schedulable {
				accepted++
				sumTight += r.Cumulative / float64(len(w.Sec))
			}
		}
		mean := 0.0
		if accepted > 0 {
			mean = sumTight / float64(accepted)
		}
		fmt.Printf("   %-10s acceptance %5.1f%%   mean per-task tightness %.3f\n",
			h, 100*float64(accepted)/float64(total), mean)
	}
	fmt.Println()
}

// nonPreemptiveCost quantifies what non-preemptive security execution
// (Sec. V) costs in tightness on the UAV workload.
func nonPreemptiveCost() {
	fmt.Println("3. Non-preemptive security execution (UAV workload, 2 cores)")
	rt := uav.RTTasks()
	sec := uav.SecurityTaskSet()
	part, err := partition.PartitionRT(rt, 2, partition.BestFit)
	if err != nil {
		log.Fatal(err)
	}
	in, err := core.NewInput(2, rt, part.CoreOf, sec)
	if err != nil {
		log.Fatal(err)
	}
	plain := core.Hydra(in, core.HydraOptions{})
	np := core.HydraExt(in, core.ExtOptions{NonPreemptiveSecurity: true})
	fmt.Printf("   preemptive:     cumulative tightness %.3f\n", plain.Cumulative)
	if np.Schedulable {
		fmt.Printf("   non-preemptive: cumulative tightness %.3f (blocking cost %.1f%%)\n",
			np.Cumulative, 100*(plain.Cumulative-np.Cumulative)/plain.Cumulative)
	} else {
		fmt.Printf("   non-preemptive: unschedulable (%s)\n", np.Reason)
	}

	// Precedence: Tripwire must verify its own binary before the system
	// binaries and libraries (indices: 0 = tw-own-binary, 1 = tw-executables,
	// 2 = tw-libraries in the Table-I order).
	chain := core.HydraExt(in, core.ExtOptions{Chains: [][]int{{0, 1}, {0, 2}}})
	if !chain.Schedulable {
		log.Fatalf("chained allocation failed: %s", chain.Reason)
	}
	fmt.Printf("   with tw-own-binary precedence chains: tightness %.3f, shared core %d\n\n",
		chain.Cumulative, chain.Assignment[0])
	if chain.Assignment[1] != chain.Assignment[0] || chain.Assignment[2] != chain.Assignment[0] {
		log.Fatal("chain members must share the predecessor's core")
	}
}

// slackReclamation compares the detection latency of HYDRA's static pinning
// against the runtime slack-reclamation mode (security jobs migrate to any
// idle core) on the UAV case study.
func slackReclamation() {
	fmt.Println("4. Runtime slack reclamation vs static HYDRA pinning (UAV, 2 cores)")
	rt := uav.RTTasks()
	sec := uav.SecurityTaskSet()
	part, err := partition.PartitionRT(rt, 2, partition.BestFit)
	if err != nil {
		log.Fatal(err)
	}
	in, err := core.NewInput(2, rt, part.CoreOf, sec)
	if err != nil {
		log.Fatal(err)
	}
	res := core.Hydra(in, core.HydraOptions{})
	if !res.Schedulable {
		log.Fatalf("HYDRA failed: %s", res.Reason)
	}
	const horizon = 500_000.0
	perCore, taskCore, taskIndex, err := experiments.BuildSimSpecs(in, res)
	if err != nil {
		log.Fatal(err)
	}
	rng := stats.SplitRNG(seed+2, 0)
	attacks := detect.SampleAttacks(rng, 2000, len(sec), horizon, 0.8)

	// Static pinning.
	pinnedTrace, err := sim.SimulateSystem(perCore, horizon)
	if err != nil {
		log.Fatal(err)
	}
	pinnedCampaign, err := detect.NewCampaign(pinnedTrace, taskCore, taskIndex)
	if err != nil {
		log.Fatal(err)
	}
	pinnedDet, err := pinnedCampaign.Run(attacks)
	if err != nil {
		log.Fatal(err)
	}
	pinnedMean := stats.NewECDF(detect.Latencies(pinnedDet)).Mean()

	// Slack reclamation: same adapted periods, but jobs may migrate. Build
	// RT-only per-core lists plus a global security list.
	rtPerCore := make([][]sim.TaskSpec, in.M)
	var secSpecs []sim.TaskSpec
	secCampaignCore := make([]int, len(sec))
	secCampaignIndex := make([]int, len(sec))
	for c, specs := range perCore {
		for _, sp := range specs {
			if sp.Kind == sim.KindRT {
				rtPerCore[c] = append(rtPerCore[c], sp)
			}
		}
		_ = c
	}
	for i := range sec {
		sp := perCore[taskCore[i]][taskIndex[i]]
		secCampaignCore[i] = in.M // virtual security trace index
		secCampaignIndex[i] = len(secSpecs)
		secSpecs = append(secSpecs, sp)
	}
	globalTrace, err := sim.SimulateGlobalSlack(rtPerCore, secSpecs, horizon)
	if err != nil {
		log.Fatal(err)
	}
	globalCampaign, err := detect.NewCampaign(globalTrace, secCampaignCore, secCampaignIndex)
	if err != nil {
		log.Fatal(err)
	}
	globalDet, err := globalCampaign.Run(attacks)
	if err != nil {
		log.Fatal(err)
	}
	globalMean := stats.NewECDF(detect.Latencies(globalDet)).Mean()

	fmt.Printf("   static pinning:    mean detection %8.0f ms\n", pinnedMean)
	fmt.Printf("   slack reclamation: mean detection %8.0f ms (%.1f%% faster)\n",
		globalMean, 100*(pinnedMean-globalMean)/pinnedMean)
	fmt.Printf("   RT deadline misses: pinned %d, global %d (both must be 0)\n",
		rtMisses(pinnedTrace, in.M), rtMisses(globalTrace, in.M))
}

// rtMisses counts deadline misses on the real cores only (the virtual
// security trace in global mode may legitimately stretch).
func rtMisses(st *sim.SystemTrace, m int) int {
	n := 0
	for c := 0; c < m && c < len(st.Cores); c++ {
		n += st.Cores[c].Misses
	}
	return n
}
