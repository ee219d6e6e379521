package main

import (
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeScale shrinks every workload to a few hundred ops.
var smokeScale = scale{
	sweepTasksets: 5,
	replicaLevels: 2,
	coldPool:      64,
	hotPool:       32,
	systems:       4,
	setupRepeats:  1,
	restarts:      1,
	digestOps:     16,
	replayLimit:   16,
	replayOps:     32,
}

// TestSmokeAllWorkloads builds the programs under test and runs every
// workload at smoke scale, untraced and traced: the checks must pass and
// every metric of the pass must be a finite number.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hydra-serve and hydra-experiments")
	}
	ctx := context.Background()
	bins := t.TempDir()
	if _, err := buildBinaries(ctx, filepath.Join("..", ".."), bins, os.Stderr); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			e := &env{bins: bins, seed: 3, window: time.Minute, maxOps: 200, trace: trace, sc: smokeScale, log: io.Discard}
			r, err := runOne(ctx, t.TempDir(), w, e)
			if err != nil {
				t.Fatalf("%s (trace %t): %v", w.name, trace, err)
			}
			if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s (trace %t): correct %t, attempted %d, failed %d: %v", w.name, trace, r.Correct, r.Attempted, r.Failed, r.Checks)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, m := range defs {
				v, ok := r.Metrics[m.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s (trace %t): metric %s = %v (present %t)", w.name, trace, m.name, v, ok)
				}
			}
			if r.Digest == "" {
				t.Errorf("%s (trace %t): no output digest", w.name, trace)
			}
		}
	}
}
