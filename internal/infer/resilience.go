package infer

import (
	"context"
	"errors"
	"fmt"

	"viralcast/internal/embed"
)

// defaultMaxBackoffs bounds how many times a fit loop may halve its step
// size and retry after detecting a non-finite gradient or likelihood
// before giving up with an error.
const defaultMaxBackoffs = 6

// FitState is a consistent snapshot of an optimization in flight: enough
// to checkpoint it durably and to resume it later. Snapshots are taken
// only at clean boundaries — after an accepted epoch (sequential fits)
// or a completed hierarchy level — so a resumed run never starts from a
// half-applied update.
type FitState struct {
	// Model is a clone of the embeddings at the boundary; mutating it
	// does not affect the running fit.
	Model *embed.Model
	// Level counts fully completed hierarchy levels; 0 for sequential
	// and Hogwild fits.
	Level int
	// Epoch counts accepted epochs completed within the current stage.
	Epoch int
	// Step is the stage's current base step size, already reduced by any
	// divergence backoffs.
	Step float64
	// Seed is the run's RNG seed. Resuming requires the same cascades,
	// configuration, and seed; the checkpoint records the seed so a
	// mismatch can be detected instead of silently diverging.
	Seed uint64
	// LogLik is the training log-likelihood at the snapshot (an EM fit's
	// epoch snapshots carry its penalized objective).
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

// Resilience configures checkpointing, resumption, and divergence
// handling for the long-running fit loops. The zero value disables
// checkpoints and resumes nothing, leaving only the always-on divergence
// guard with its default backoff budget.
type Resilience struct {
	// Checkpoint, when non-nil, is called with a boundary snapshot every
	// CheckpointEvery epochs (sequential, Hogwild) or levels
	// (hierarchical), at the end of a successful fit, and — crucially —
	// when the context is canceled mid-run, so a SIGINT still leaves a
	// durable snapshot behind. A checkpoint error aborts the fit.
	Checkpoint func(FitState) error
	// CheckpointEvery is the snapshot interval in epochs or levels;
	// values < 1 mean every boundary.
	CheckpointEvery int
	// Resume warm-starts the fit from a previous snapshot instead of a
	// random initialization.
	Resume *FitState
	// MaxBackoffs bounds divergence-guard retries per stage; values < 1
	// use the default.
	MaxBackoffs int
}

func (r Resilience) withDefaults() Resilience {
	if r.CheckpointEvery < 1 {
		r.CheckpointEvery = 1
	}
	if r.MaxBackoffs < 1 {
		r.MaxBackoffs = defaultMaxBackoffs
	}
	return r
}

// checkpoint invokes the callback if one is configured.
func (r Resilience) checkpoint(st FitState) error {
	if r.Checkpoint == nil {
		return nil
	}
	return r.Checkpoint(st)
}

// canceled reports whether err is a context cancellation rather than a
// genuine optimization failure.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finalCheckpoint writes the shutdown snapshot after a cancellation. The
// cancellation error still wins; a checkpoint failure is attached to it.
func (r Resilience) finalCheckpoint(cause error, st FitState) error {
	if cerr := r.checkpoint(st); cerr != nil {
		return errors.Join(cause, fmt.Errorf("infer: shutdown checkpoint failed: %w", cerr))
	}
	return cause
}
