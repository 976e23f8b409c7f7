package infer

import (
	"context"

	"viralcast/internal/cascade"
	"viralcast/internal/cooccur"
	"viralcast/internal/embed"
	"viralcast/internal/slpa"
	"viralcast/internal/xrand"
)

// PipelineOptions bundles what the end-to-end inference lets a caller
// set: the hierarchical parallel optimization and HierarchicalCtx's
// checkpoints and resume. The co-occurrence graph and SLPA have nothing
// to set.
type PipelineOptions struct {
	Parallel   ParallelOptions
	Resilience Resilience
}

// Pipeline runs the paper's full inference stack on raw cascades:
//
//  1. build the frequent co-occurrence graph (§IV-B),
//  2. detect communities with SLPA,
//  3. run the hierarchical community-parallel EM fit (Algorithms 1
//     and 2).
//
// It returns the fitted model, the detected base partition, and the
// optimization trace.
func Pipeline(cs []*cascade.Cascade, n int, cfg Config, opts PipelineOptions) (*embed.Model, *slpa.Partition, *Trace, error) {
	return PipelineCtx(context.Background(), cs, n, cfg, opts)
}

// PipelineCtx is Pipeline with cancellation and resilience. The graph
// construction and community detection (steps 1-2) are deterministic in
// the seed and cheap next to the optimization, so they are recomputed
// rather than checkpointed; on resume they reproduce the exact partition
// the interrupted run was using, provided the cascades, configuration,
// and seed are unchanged.
func PipelineCtx(ctx context.Context, cs []*cascade.Cascade, n int, cfg Config, opts PipelineOptions) (*embed.Model, *slpa.Partition, *Trace, error) {
	cfg = cfg.WithDefaults()
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	g, err := cooccur.Build(cs, n, cooccur.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	part := slpa.Detect(g, slpa.Options{}, xrand.New(cfg.Seed^0x5eed))
	m, tr, err := HierarchicalCtx(ctx, cs, n, part, cfg, opts.Parallel, opts.Resilience)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, part, tr, nil
}
