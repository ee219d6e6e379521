package tasksetio

import (
	"sort"

	"hydra/internal/rts"
)

// Canonical returns a copy of the problem in canonical form: real-time and
// security tasks sorted by (name, parameters), a fixed partition permuted
// alongside its tasks, and defaulted fields normalized (security weights
// resolve to their effective value, so weight 0 and weight 1 compare equal).
// Two problems describing the same system — regardless of task ordering or
// spelled-out defaults — have identical canonical forms, which is what the
// allocation service hashes for its result cache. Allocating the canonical
// form also makes the answer independent of the ordering the client sent.
func (p *Problem) Canonical() *Problem {
	c := &Problem{M: p.M, RT: withCap[rts.RTTask](len(p.RT)), Sec: withCap[rts.SecurityTask](len(p.Sec))}

	rtOrder := make([]int, len(p.RT))
	for i := range rtOrder {
		rtOrder[i] = i
	}
	// Pinned core (when a fixed partition exists) is part of a task's
	// identity: two otherwise-identical tasks on different cores must sort
	// deterministically for equivalent documents to canonicalize equally.
	coreOf := func(i int) int {
		if p.RTPartition != nil {
			return p.RTPartition[i]
		}
		return 0
	}
	sort.SliceStable(rtOrder, func(a, b int) bool {
		ia, ib := rtOrder[a], rtOrder[b]
		ta, tb := p.RT[ia], p.RT[ib]
		if ta.Name != tb.Name {
			return ta.Name < tb.Name
		}
		if ta.T != tb.T {
			return ta.T < tb.T
		}
		if ta.C != tb.C {
			return ta.C < tb.C
		}
		if ta.D != tb.D {
			return ta.D < tb.D
		}
		return coreOf(ia) < coreOf(ib)
	})
	for _, i := range rtOrder {
		c.RT = append(c.RT, p.RT[i])
	}
	if p.RTPartition != nil {
		c.RTPartition = make([]int, len(rtOrder))
		for pos, i := range rtOrder {
			c.RTPartition[pos] = p.RTPartition[i]
		}
	}

	secOrder := make([]int, len(p.Sec))
	for i := range secOrder {
		secOrder[i] = i
	}
	sort.SliceStable(secOrder, func(a, b int) bool {
		sa, sb := p.Sec[secOrder[a]], p.Sec[secOrder[b]]
		if sa.Name != sb.Name {
			return sa.Name < sb.Name
		}
		if sa.TMax != sb.TMax {
			return sa.TMax < sb.TMax
		}
		if sa.TDes != sb.TDes {
			return sa.TDes < sb.TDes
		}
		if sa.C != sb.C {
			return sa.C < sb.C
		}
		return sa.EffectiveWeight() < sb.EffectiveWeight()
	})
	for _, i := range secOrder {
		s := p.Sec[i]
		s.Weight = s.EffectiveWeight()
		c.Sec = append(c.Sec, s)
	}
	return c
}
