// Design-space exploration: the decisions a system designer faces when
// retrofitting security tasks into a multicore RTS, explored with this
// library on synthetic workloads (paper Sec. IV-B parameters):
//
//  1. allocation-scheme ablation (HYDRA best-tightness vs first-feasible vs
//     least-loaded, and the partition-best-fit baseline);
//  2. real-time partition heuristic ablation (first/best/worst/next-fit);
//  3. the Sec. V extensions: non-preemptive security execution cost, and
//     runtime slack reclamation (migrating security jobs) vs static HYDRA
//     pinning, measured as intrusion-detection latency on the UAV case study.
//
// Sections 1 and 2 print rows of experiments.RunAblation's grid on its v1
// taskset streams; section 3's detection latencies come from
// experiments.Simulate, the path Fig. 1 and hydra-sim measure through.
// testdata/output.txt holds the expected stdout. Run with:
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

// ablation runs experiments.RunAblation's scheme x heuristic grid at
// utilization util*M on the v1 taskset streams of seed+seedOffset, draw t
// being stats.SplitRNG(seed+seedOffset, t).
func ablation(util float64, seedOffset int64, schemes ...string) []experiments.AblationCell {
	cells, err := experiments.RunAblation(experiments.AblationConfig{
		M: m, UtilFrac: util, TasksetsPerCell: tasksetCount, Seed: seed + seedOffset,
		Schemes: schemes, ResultsVersion: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	return cells
}

// printCell prints one ablation row, its label padded to width.
func printCell(width int, label any, c experiments.AblationCell) {
	fmt.Printf("   %-*s acceptance %5.1f%%   mean per-task tightness %.3f\n",
		width, label, 100*float64(c.Accepted)/float64(c.Generated), c.MeanTightness)
}

// policyAblation compares allocation schemes — selected by name from the
// allocator registry — by acceptance ratio and cumulative tightness at a
// demanding utilization, on best-fit real-time partitions. Besides HYDRA's
// three commitment policies it includes the no-period-adaptation bin-packing
// baseline, quantifying what the paper's period adaptation buys.
func policyAblation() {
	fmt.Printf("1. Allocation-scheme ablation (%d cores, U=0.85M, %d tasksets)\n", m, tasksetCount)
	for _, c := range ablation(0.85, 0, "hydra", "hydra-first-feasible", "hydra-least-loaded", "partition-best-fit") {
		if c.Heuristic == partition.BestFit {
			printCell(22, c.Scheme, c)
		}
	}
	fmt.Println()
}

// heuristicAblation shows how the *real-time* partition heuristic changes
// the security headroom HYDRA finds.
func heuristicAblation() {
	fmt.Printf("2. RT-partition heuristic ablation (%d cores, U=0.8M, %d tasksets)\n", m, tasksetCount)
	for _, c := range ablation(0.8, 1, "hydra") {
		printCell(10, c.Heuristic, c)
	}
	fmt.Println()
}

// uavInput is the UAV case study on two cores, its real-time tasks
// partitioned best-fit.
func uavInput() *core.Input {
	rt := uav.RTTasks()
	part, err := partition.PartitionRT(rt, 2, partition.BestFit)
	if err != nil {
		log.Fatal(err)
	}
	in, err := core.NewInput(2, rt, part.CoreOf, uav.SecurityTaskSet())
	if err != nil {
		log.Fatal(err)
	}
	return in
}

// nonPreemptiveCost quantifies what non-preemptive security execution
// (Sec. V) costs in tightness on the UAV workload.
func nonPreemptiveCost() {
	fmt.Println("3. Non-preemptive security execution (UAV workload, 2 cores)")
	in := uavInput()
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
// idle core) on the UAV case study: the same allocation and attacks through
// experiments.Simulate in both modes.
func slackReclamation() {
	fmt.Println("4. Runtime slack reclamation vs static HYDRA pinning (UAV, 2 cores)")
	in := uavInput()
	res := core.Hydra(in, core.HydraOptions{})
	if !res.Schedulable {
		log.Fatalf("HYDRA failed: %s", res.Reason)
	}
	const horizon = 500_000.0
	attacks := detect.SampleAttacks(stats.SplitRNG(seed+2, 0), 2000, len(in.Sec), horizon, 0.8)
	var mean [2]float64
	var misses [2]int
	for i, slack := range []bool{false, true} {
		campaign, err := experiments.Simulate(in, res, horizon, slack)
		if err != nil {
			log.Fatal(err)
		}
		ds, err := campaign.Run(attacks)
		if err != nil {
			log.Fatal(err)
		}
		mean[i] = stats.NewECDF(detect.Latencies(ds)).Mean()
		misses[i] = rtMisses(campaign.Trace, in.M)
	}
	fmt.Printf("   static pinning:    mean detection %8.0f ms\n", mean[0])
	fmt.Printf("   slack reclamation: mean detection %8.0f ms (%.1f%% faster)\n",
		mean[1], 100*(mean[0]-mean[1])/mean[0])
	fmt.Printf("   RT deadline misses: pinned %d, global %d (both must be 0)\n", misses[0], misses[1])
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
