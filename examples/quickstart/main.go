// Quickstart: allocate two security tasks onto a 2-core real-time system
// with HYDRA and print the resulting cores, periods and tightness.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/rts"
)

func main() {
	// 1. The existing real-time workload (immutable: HYDRA never changes it).
	rtTasks := []rts.RTTask{
		rts.NewRTTask("sensor-fusion", 5, 20),   // 25% utilization
		rts.NewRTTask("control-loop", 10, 50),   // 20%
		rts.NewRTTask("telemetry", 20, 200),     // 10%
		rts.NewRTTask("housekeeping", 50, 1000), // 5%
	}

	// 2. The security tasks to retrofit: WCET, desired period, max period.
	secTasks := []rts.SecurityTask{
		{Name: "integrity-check", C: 120, TDes: 2000, TMax: 20000},
		{Name: "net-monitor", C: 80, TDes: 1000, TMax: 10000},
	}

	// 3. Partition the real-time tasks across the cores (best-fit, as in the
	// paper) — in a retrofit scenario this assignment already exists.
	const m = 2
	rtPartition, err := partition.PartitionRT(rtTasks, m, partition.BestFit)
	if err != nil {
		log.Fatalf("real-time tasks are not schedulable on %d cores: %v", m, err)
	}

	// 4. Run HYDRA (Algorithm 1).
	in, err := core.NewInput(m, rtTasks, rtPartition.CoreOf, secTasks)
	if err != nil {
		log.Fatal(err)
	}
	res := core.Hydra(in, core.HydraOptions{})
	if !res.Schedulable {
		log.Fatalf("no feasible allocation: %s", res.Reason)
	}
	if err := core.Verify(in, res); err != nil {
		log.Fatalf("allocation failed verification: %v", err)
	}

	// 5. Inspect the result.
	fmt.Printf("cumulative tightness: %.3f (1.0 per task = every desired period met)\n\n", res.Cumulative)
	for i, s := range secTasks {
		fmt.Printf("%-16s -> core %d, period %6.0f ms (desired %5.0f, tightness %.2f)\n",
			s.Name, res.Assignment[i], res.Periods[i], s.TDes, res.Tightness[i])
	}

	// 6. Compare against dedicating one core to security (SingleCore).
	sc := core.SingleCore(m, rtTasks, secTasks, partition.BestFit)
	if sc.Schedulable {
		fmt.Printf("\nSingleCore baseline cumulative tightness: %.3f\n", sc.Cumulative)
	} else {
		fmt.Printf("\nSingleCore baseline: unschedulable (%s)\n", sc.Reason)
	}
}
