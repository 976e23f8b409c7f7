package infer

import (
	"context"
	"errors"
	"fmt"

	"viralcast/internal/embed"
)

// maxBackoffs bounds how many consecutive times a fit loop may retry
// after detecting a non-finite statistic, gradient or likelihood (halving
// its step size, where it has one) before giving up with an error.
const maxBackoffs = 6

// FitState is a consistent snapshot of a hierarchical fit in flight:
// enough to checkpoint it durably and to resume it later. Snapshots are
// taken only at hierarchy level boundaries, so a resumed run never
// starts from a half-applied update.
type FitState struct {
	// Model is a clone of the embeddings at the boundary; mutating it
	// does not affect the running fit.
	Model *embed.Model
	// Level counts fully completed hierarchy levels.
	Level int
	// Seed is the run's RNG seed. Resuming requires the same cascades,
	// configuration, and seed; the checkpoint records the seed so a
	// mismatch can be detected instead of silently diverging.
	Seed uint64
	// LogLik is the training log-likelihood at the snapshot.
	LogLik float64
}

// validate rejects a resume state that cannot continue the given fit.
func (st *FitState) validate(n, k int, seed uint64) error {
	if st.Model == nil {
		return fmt.Errorf("infer: resume state has no model")
	}
	if st.Model.N() != n || st.Model.K() != k {
		return fmt.Errorf("infer: resume model is %dx%d, fit wants %dx%d",
			st.Model.N(), st.Model.K(), n, k)
	}
	if st.Seed != seed {
		return fmt.Errorf("infer: resume state was trained with seed %d, fit configured with seed %d",
			st.Seed, seed)
	}
	if err := st.Model.Validate(); err != nil {
		return fmt.Errorf("infer: resume model invalid: %w", err)
	}
	return nil
}

// Resilience configures HierarchicalCtx's checkpoints and resumption.
// The zero value disables checkpoints and resumes nothing; the
// divergence guards of every fit are always on.
type Resilience struct {
	// Checkpoint, when non-nil, is called with a boundary snapshot after
	// every completed level and — crucially — when the context is
	// canceled mid-run, so a SIGINT still leaves a durable snapshot
	// behind. A checkpoint error aborts the fit.
	Checkpoint func(FitState) error
	// Resume warm-starts the fit from a previous snapshot instead of a
	// random initialization.
	Resume *FitState
}

// canceled reports whether err is a context cancellation rather than a
// genuine optimization failure.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finalCheckpoint writes the shutdown snapshot after a cancellation, if
// a checkpoint is configured. The cancellation error still wins; a
// checkpoint failure is attached to it.
func (r Resilience) finalCheckpoint(cause error, st FitState) error {
	if r.Checkpoint == nil {
		return cause
	}
	if cerr := r.Checkpoint(st); cerr != nil {
		return errors.Join(cause, fmt.Errorf("infer: shutdown checkpoint failed: %w", cerr))
	}
	return cause
}
