package infer

import (
	"viralcast/internal/cascade"
	"viralcast/internal/slpa"
)

// SplitCascades implements Algorithm 1 lines 1-11: every cascade is
// divided into per-community sub-cascades according to the node
// membership. Sub-cascades keep the original absolute infection times.
// Sub-cascades with fewer than two infections are dropped — they carry
// no likelihood terms. Nothing outside the tests calls it: levelTasks
// produces the same split already renumbered to community-local ids,
// and is held to this function.
func SplitCascades(cs []*cascade.Cascade, p *slpa.Partition) [][]*cascade.Cascade {
	out := make([][]*cascade.Cascade, p.NumCommunities())
	parts := make([]*cascade.Cascade, p.NumCommunities()) // nil between cascades
	var touched []int                                     // communities with a part
	for _, c := range cs {
		for _, inf := range c.Infections {
			r := p.Membership[inf.Node]
			if parts[r] == nil {
				parts[r] = &cascade.Cascade{ID: c.ID}
				touched = append(touched, r)
			}
			parts[r].Infections = append(parts[r].Infections, inf)
		}
		for _, r := range touched {
			if parts[r].Size() >= 2 {
				out[r] = append(out[r], parts[r])
			}
			parts[r] = nil
		}
		touched = touched[:0]
	}
	return out
}
