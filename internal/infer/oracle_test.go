package infer

import (
	"context"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
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

// RunLevel executes Algorithm 1 on one level: every community is
// optimized independently (its rows of A and B are disjoint from every
// other community's, so no synchronization beyond the final barrier is
// needed), with at most workers communities in flight at once. The model
// is updated in place; the barrier is the WaitGroup at the end.
func RunLevel(m *embed.Model, cs []*cascade.Cascade, p *slpa.Partition, cfg Config, workers int) error {
	return RunLevelCtx(context.Background(), m, cs, p, cfg, workers, 0)
}

// RunLevelCtx is RunLevel with cancellation: runLevel, the body
// Hierarchical runs per level, behind the configuration defaults and
// checks HierarchicalCtx applies before its loop, without the task
// durations.
func RunLevelCtx(ctx context.Context, m *embed.Model, cs []*cascade.Cascade, p *slpa.Partition, cfg Config, workers, maxBackoffs int) error {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = 1
	}
	_, err := runLevel(ctx, m, cs, p, cfg, workers, maxBackoffs)
	return err
}
