package infer

import (
	"context"

	"viralcast/internal/cascade"
	"viralcast/internal/cooccur"
	"viralcast/internal/embed"
	"viralcast/internal/slpa"
	"viralcast/internal/xrand"
)

// PipelineOptions bundles everything the end-to-end inference needs: the
// co-occurrence construction, the SLPA community detection, the
// hierarchical parallel optimization, and the resilience layer
// (cancellation checkpoints, resume, divergence backoff budget).
type PipelineOptions struct {
	Cooccur    cooccur.Options
	SLPA       slpa.Options
	Parallel   ParallelOptions
	Resilience Resilience
}

// Pipeline runs the paper's full inference stack on raw cascades:
//
//  1. build the frequent co-occurrence graph (§IV-B),
//  2. detect communities with SLPA,
//  3. run the hierarchical community-parallel gradient ascent
//     (Algorithms 1 and 2).
//
// It returns the fitted model, the detected base partition, and the
// optimization trace.
func Pipeline(cs []*cascade.Cascade, n int, cfg Config, opts PipelineOptions) (*embed.Model, *slpa.Partition, *Trace, error) {
	return PipelineCtx(context.Background(), cs, n, cfg, opts)
}

// PipelineCtx is Pipeline with cancellation and resilience. The graph
// construction and community detection are deterministic in the seed, so
// they are recomputed rather than checkpointed; on resume they reproduce
// the exact partition the interrupted run was using, provided the
// cascades, configuration, and seed are unchanged. Recomputing is cheap
// now, and was not always: on bench/'s train workload (800 nodes, 1,000
// cascades, 2 cores) steps 1-2 were 0.77 s of a 1.00 s fit (cooccur 9 %,
// SLPA 68 %, optimization 22 %) while they ran on maps, and are 0.08 s
// on CSR rows and sorted label memories. With the fused likelihood and
// gradient kernels under step 3 a fit was 0.185 s: cooccur 0.010 s (5 %),
// SLPA 0.072 s (39 %), optimization 0.103 s (55 %). With SLPA's speak one
// index into a sorted label multiset and its draws made ahead on a second
// goroutine, the stages were cooccur 0.0095 s (6 %), SLPA 0.039 s (24 %),
// optimization 0.117 s (71 %), medians of six traced fits on a shared box.
// With the likelihood and gradient kernels register-blocked, the CSR
// arrays sized once and a listener's draws taken in one call, three
// traced fits on a busier day read cooccur 0.014 s (6 %), SLPA 0.068 s
// (30 %), optimization 0.145 s (64 %), against 0.017 / 0.085 / 0.226 s
// (5 / 26 / 69 %) for the code before in the same runs (EXPERIMENTS.md,
// "Compute-plane performance").
func PipelineCtx(ctx context.Context, cs []*cascade.Cascade, n int, cfg Config, opts PipelineOptions) (*embed.Model, *slpa.Partition, *Trace, error) {
	cfg = cfg.WithDefaults()
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	g, err := cooccur.Build(cs, n, opts.Cooccur)
	if err != nil {
		return nil, nil, nil, err
	}
	part := slpa.Detect(g, opts.SLPA, xrand.New(cfg.Seed^0x5eed))
	m, tr, err := HierarchicalCtx(ctx, cs, n, part, cfg, opts.Parallel, opts.Resilience)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, part, tr, nil
}
