//go:build race

package core

// The race detector's runtime instrumentation allocates on its own behalf,
// so AllocsPerRun-based gates are meaningless under -race. Tests that pin
// allocation counts check this flag and skip.
func init() { raceEnabled = true }
