package main

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden output files")

// TestHydraSimGolden pins hydra-sim's output, byte for byte, on every
// built-in workload at two platform sizes in four modes: pinned and slack
// simulation of a hydra allocation (each with a Gantt chart), slack
// simulation of a singlecore allocation, and the hydra-np allocation, whose
// non-preemptive flag the simulation does not model (a fix to that shows
// here as a deliberate golden change). Regenerate with:
// go test ./cmd/hydra-sim -run TestHydraSimGolden -update
func TestHydraSimGolden(t *testing.T) {
	modes := map[string][]string{
		"pinned":           {"-attacks", "200", "-gantt", "300"},
		"slack":            {"-attacks", "200", "-slack", "-gantt", "300"},
		"singlecore-slack": {"-scheme", "singlecore", "-slack", "-attacks", "200"},
		"hydra-np":         {"-scheme", "hydra-np", "-attacks", "200"},
	}
	for _, w := range []string{"uav", "automotive", "avionics"} {
		for _, m := range []int{2, 4} {
			for mode, args := range modes {
				name := w + "_m" + strconv.Itoa(m) + "_" + mode
				t.Run(name, func(t *testing.T) {
					got, err := runSim(t, append([]string{"-workload", w, "-m", strconv.Itoa(m)}, args...), "")
					if err != nil {
						t.Fatal(err)
					}
					path := filepath.Join("testdata", name+".txt")
					if *updateGolden {
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("read golden (run with -update to create): %v", err)
					}
					if got != string(want) {
						t.Fatalf("output drifted from golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
					}
				})
			}
		}
	}
}
