package rts

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// trialRecord is the fuzz encoding of one operation: an op byte, a name byte,
// then C, T and D as little-endian float64 bit patterns. The op byte's low
// two bits pick SeedRT, TryAddRT, AddRT or RemoveRT, bit 2 the core, and bit
// 3 sets D = T, so implicit deadlines, which the hyperbolic bound decides, are
// one bit away.
const trialRecord = 26

// FuzzTryAddRT drives a two-core AnalysisState through SeedRT, TryAddRT,
// AddRT and RemoveRT and checks every TryAddRT and AddRT verdict against
// CoreSchedulable, a cold exact RTA of the core's committed tasks plus the
// arrival on a fresh state. SeedRT, which analyzes nothing, is applied only
// where CoreSchedulable holds, as its callers seed only checked partitions;
// RemoveRT's name byte picks a committed task. The committed corpus holds the
// iteration-cap pair, decimal periods whose quotients round, sets with a
// product of exactly 2, and constrained deadlines.
func FuzzTryAddRT(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewAnalysisState(2)
		var shadow [2][]RTTask // committed tasks per core, in arrival order
		for i := 0; i < min(len(data)/trialRecord, 64); i++ {
			rec := data[i*trialRecord : (i+1)*trialRecord]
			op, c := rec[0]&3, int(rec[0]>>2&1)
			if op == 3 {
				if n := len(shadow[c]); n > 0 {
					j := int(rec[1]) % n
					if !st.RemoveRT(c, shadow[c][j]) {
						t.Fatalf("op %d: RemoveRT did not find %+v on core %d", i, shadow[c][j], c)
					}
					shadow[c] = slices.Delete(shadow[c], j, j+1)
				}
				continue
			}
			task := RTTask{
				Name: string(rune('a' + rec[1]%4)),
				C:    math.Float64frombits(binary.LittleEndian.Uint64(rec[2:])),
				T:    math.Float64frombits(binary.LittleEndian.Uint64(rec[10:])),
				D:    math.Float64frombits(binary.LittleEndian.Uint64(rec[18:])),
			}
			if rec[0]&8 != 0 {
				task.D = task.T
			}
			if task.Validate() != nil {
				continue
			}
			want := CoreSchedulable(append(slices.Clip(shadow[c]), task))
			var got bool
			switch op {
			case 0:
				if want {
					st.SeedRT(c, task)
				}
				got = want
			case 1:
				got = st.TryAddRT(c, task)
			case 2:
				got = st.AddRT(c, task)
			}
			if got != want {
				t.Fatalf("op %d (%d) of %+v on core %d holding %+v: verdict %t, CoreSchedulable %t", i, op, task, c, shadow[c], got, want)
			}
			if got && op != 1 {
				shadow[c] = append(shadow[c], task)
			}
		}
	})
}
