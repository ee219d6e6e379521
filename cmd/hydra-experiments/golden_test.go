package main

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden output files")

// TestFig2Golden pins the paper's Fig. 2 output, as
//
//	hydra-experiments -experiment fig2 -cores 2,4,8 -tasksets 10 -seed 1 -format csv
//
// prints it, byte for byte under both results versions and for any worker
// count. Regenerate with: go test ./cmd/hydra-experiments -run TestFig2Golden -update
// (the one-worker run writes the golden and the others are checked against it).
func TestFig2Golden(t *testing.T) {
	for _, version := range []string{"1", "2"} {
		path := filepath.Join("testdata", "fig2_v"+version+".csv")
		for _, workers := range []int{1, 2, 8} {
			t.Run("v"+version+"/workers="+strconv.Itoa(workers), func(t *testing.T) {
				got, err := runExp(t, "-experiment", "fig2", "-cores", "2,4,8", "-tasksets", "10", "-seed", "1",
					"-format", "csv", "-results-version", version, "-workers", strconv.Itoa(workers))
				if err != nil {
					t.Fatal(err)
				}
				if *updateGolden && workers == 1 {
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

// TestFig1Golden pins the paper's Fig. 1 output, as
//
//	hydra-experiments -experiment fig1 -cores 2,4 -attacks 100 -seed 1 -format csv
//
// prints it, byte for byte under both results versions and for any worker
// count. Fig. 1 is the output the simulator feeds, so a change to
// internal/sim that moves any job time shows here. Regenerate with:
// go test ./cmd/hydra-experiments -run TestFig1Golden -update
func TestFig1Golden(t *testing.T) {
	for _, version := range []string{"1", "2"} {
		path := filepath.Join("testdata", "fig1_v"+version+".csv")
		for _, workers := range []int{1, 2, 8} {
			t.Run("v"+version+"/workers="+strconv.Itoa(workers), func(t *testing.T) {
				got, err := runExp(t, "-experiment", "fig1", "-cores", "2,4", "-attacks", "100", "-seed", "1",
					"-format", "csv", "-results-version", version, "-workers", strconv.Itoa(workers))
				if err != nil {
					t.Fatal(err)
				}
				if *updateGolden && workers == 1 {
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
