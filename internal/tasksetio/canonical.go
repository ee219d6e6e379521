package tasksetio

import (
	"cmp"
	"slices"
	"strings"

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
	slices.SortStableFunc(rtOrder, func(ia, ib int) int {
		ta, tb := &p.RT[ia], &p.RT[ib]
		if c := strings.Compare(ta.Name, tb.Name); c != 0 {
			return c
		}
		if c := cmp.Compare(ta.T, tb.T); c != 0 {
			return c
		}
		if c := cmp.Compare(ta.C, tb.C); c != 0 {
			return c
		}
		if c := cmp.Compare(ta.D, tb.D); c != 0 {
			return c
		}
		return cmp.Compare(coreOf(ia), coreOf(ib))
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
	slices.SortStableFunc(secOrder, func(a, b int) int {
		sa, sb := &p.Sec[a], &p.Sec[b]
		if c := strings.Compare(sa.Name, sb.Name); c != 0 {
			return c
		}
		if c := cmp.Compare(sa.TMax, sb.TMax); c != 0 {
			return c
		}
		if c := cmp.Compare(sa.TDes, sb.TDes); c != 0 {
			return c
		}
		if c := cmp.Compare(sa.C, sb.C); c != 0 {
			return c
		}
		return cmp.Compare(sa.EffectiveWeight(), sb.EffectiveWeight())
	})
	for _, i := range secOrder {
		s := p.Sec[i]
		s.Weight = s.EffectiveWeight()
		c.Sec = append(c.Sec, s)
	}
	return c
}
