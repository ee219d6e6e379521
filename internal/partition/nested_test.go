package partition

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hydra/internal/rts"
	"hydra/internal/taskgen"
)

// nestedRecord is the fuzz encoding of one task: a name byte, then C, T and D
// as little-endian float64 bit patterns.
const nestedRecord = 25

func decodeNestedTasks(data []byte) []rts.RTTask {
	n := min(len(data)/nestedRecord, 64)
	tasks := make([]rts.RTTask, n)
	for i := range tasks {
		rec := data[i*nestedRecord : (i+1)*nestedRecord]
		tasks[i] = rts.RTTask{
			Name: string(rune('a' + rec[0]%4)),
			C:    math.Float64frombits(binary.LittleEndian.Uint64(rec[1:])),
			T:    math.Float64frombits(binary.LittleEndian.Uint64(rec[9:])),
			D:    math.Float64frombits(binary.LittleEndian.Uint64(rec[17:])),
		}
	}
	return tasks
}

// checkNestedPacking asserts the prefix property PartitionRT documents: for
// first-fit and best-fit, the packing onto m-1 cores is the one onto m cores
// when that leaves core m-1 empty, and fails otherwise.
func checkNestedPacking(t *testing.T, tasks []rts.RTTask, m int) {
	t.Helper()
	for _, h := range []Heuristic{FirstFit, BestFit} {
		wide, err := PartitionRT(tasks, m, h)
		derived := err == nil && !slices.Contains(wide.CoreOf, m-1)
		narrow, narrowErr := PartitionRT(tasks, m-1, h)
		switch {
		case derived != (narrowErr == nil):
			t.Fatalf("%v, m=%d: derived packing ok=%t, but PartitionRT(m-1) err = %v (m-core err = %v)",
				h, m, derived, narrowErr, err)
		case derived && !slices.Equal(narrow.CoreOf, wide.CoreOf):
			t.Fatalf("%v, m=%d: PartitionRT(m-1) = %v, m-core packing = %v", h, m, narrow.CoreOf, wide.CoreOf)
		}
	}
}

// FuzzNestedPacking checks the prefix property on arbitrary task sets for
// m = 2..9. The committed corpus seeds constrained deadlines, duplicate
// tasks, equal utilizations, a subnormal WCET, a task that fits only on an
// empty core and a set no m-core packing holds.
func FuzzNestedPacking(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks := decodeNestedTasks(data)
		for m := 2; m <= 9; m++ {
			checkNestedPacking(t, tasks, m)
		}
	})
}

// TestNestedPackingTaskgen runs the FuzzNestedPacking check over taskgen
// problems across the Fig. 2 utilization range, half of them with deadlines
// shrunk below their periods.
func TestNestedPackingTaskgen(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 3000; i++ {
		m := 2 + rng.Intn(8)
		w, err := taskgen.Generate(taskgen.DefaultParams(m, (0.05+0.95*rng.Float64())*float64(m)), rng)
		if err != nil {
			continue
		}
		if i%2 == 1 {
			for j := range w.RT {
				rt := &w.RT[j]
				rt.D = rt.C + (rt.T-rt.C)*rng.Float64()
			}
		}
		checkNestedPacking(t, w.RT, m)
	}
}
