package core

import (
	"sync"

	"hydra/internal/rts"
)

// allocScratch is the pooled working memory of the allocation and
// verification hot paths: the mutable per-core load vectors the schemes
// commit security tasks into. Pooling keeps the steady-state serving and
// sweep paths free of per-call slice churn; result slices (assignments,
// periods, tightness) still allocate, since they escape into the Result.
type allocScratch struct {
	loads     []rts.CoreLoad
	committed []rts.CoreLoad

	// HydraExt's per-call precedence machinery: the chain-adjusted processing
	// order, each task's direct predecessor, the topological-sort visit
	// marks, and the non-preemptive blocking terms. Every -np allocation
	// runs HydraExt (ablation's non-preemptive arm, -np requests on
	// /v1/allocate and in Fig. 2), so these ride the pool too.
	order     []int
	chainPred []int
	placed    []bool
	blocking  []rts.Time
}

// filled returns buf resized to n with every element set to v — the
// grow-and-reset step every pooled scratch buffer needs before reuse.
func filled[T any](buf []T, n int, v T) []T {
	if cap(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

var scratchPool = sync.Pool{New: func() any { return new(allocScratch) }}

func acquireScratch() *allocScratch  { return scratchPool.Get().(*allocScratch) }
func releaseScratch(s *allocScratch) { scratchPool.Put(s) }
