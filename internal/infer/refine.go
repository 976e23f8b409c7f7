package infer

import (
	"fmt"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
)

// Refine continues optimizing an existing model on (typically new)
// cascades, warm-starting from the current embeddings — the online
// regime the paper's introduction motivates: cascades of breaking news
// arrive continuously, and the embeddings should track them without a
// full refit. The model is updated in place; the returned trace records
// the accepted epochs.
//
// Refine uses the full sequential objective over the provided cascades;
// for large incremental batches, run the hierarchical path on the full
// corpus instead.
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
	epochs, lls, _, err := ascend(m, cs, cfg)
	if err != nil {
		return nil, err
	}
	return &Trace{LogLik: lls, Iters: epochs, Elapsed: time.Since(start)}, nil
}
