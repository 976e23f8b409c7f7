package infer

import (
	"context"
	"fmt"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
)

// Refine refits an existing model to cs by the fit's own closed-form EM
// (emCtx), warm-started from the current embeddings — the online regime
// the paper's introduction motivates: cascades of breaking news arrive
// continuously, and the embeddings should track them. cs is every
// cascade the model should explain, the corpus and the new arrivals
// together, not a delta: nothing else anchors the refit, and an EM fit
// to a few new cascades alone forgets the rest. The model is updated in
// place; the returned trace records the accepted epochs.
func Refine(m *embed.Model, cs []*cascade.Cascade, cfg Config) (*Trace, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("infer: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("infer: model to refine is invalid: %w", err)
	}
	if cfg.K != m.K() {
		return nil, fmt.Errorf("infer: config K=%d does not match model K=%d", cfg.K, m.K())
	}
	if err := cascade.ValidateAll(cs, m.N()); err != nil {
		return nil, err
	}
	start := time.Now()
	fit, err := emCtx(context.Background(), m, cs, cfg)
	if err != nil {
		return nil, err
	}
	return &Trace{LogLik: fit.trace(m, cs), Iters: fit.epochs, Elapsed: time.Since(start)}, nil
}
