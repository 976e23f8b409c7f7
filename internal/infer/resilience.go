package infer

import (
	"context"
	"errors"
	"fmt"

	"viralcast/internal/checkpoint"
)

// Resilience configures HierarchicalCtx's checkpoints and resumption.
// The zero value disables checkpoints and resumes nothing; the
// divergence guards of every fit are always on.
type Resilience struct {
	// Path, when set, is the checkpoint file (checkpoint.Save): written
	// after every completed level and — crucially — when the context is
	// canceled mid-run, so a SIGINT still leaves a durable snapshot
	// behind. A failed write aborts the fit.
	Path string
	// Resume warm-starts the fit from the snapshot at Path instead of a
	// random initialization; a missing file starts from scratch. The
	// cascades, configuration and seed must match the snapshot's run.
	Resume bool
}

// resumeState loads the snapshot r resumes from, nil when there is none,
// and rejects one that cannot continue a fit of n nodes × k topics with
// the given seed.
func (r Resilience) resumeState(n, k int, seed uint64) (*checkpoint.State, error) {
	if !r.Resume {
		return nil, nil
	}
	if r.Path == "" {
		return nil, fmt.Errorf("infer: Resume requires a checkpoint Path")
	}
	st, err := checkpoint.Resume(r.Path)
	if st == nil || err != nil {
		return nil, err
	}
	if st.Model.N() != n || st.Model.K() != k {
		return nil, fmt.Errorf("infer: resume model is %dx%d, fit wants %dx%d",
			st.Model.N(), st.Model.K(), n, k)
	}
	if st.Seed != seed {
		return nil, fmt.Errorf("infer: resume state was trained with seed %d, fit configured with seed %d",
			st.Seed, seed)
	}
	if err := st.Model.Validate(); err != nil {
		return nil, fmt.Errorf("infer: resume model invalid: %w", err)
	}
	return st, nil
}

// save writes st to r.Path, if a path is set.
func (r Resilience) save(st *checkpoint.State) error {
	if r.Path == "" {
		return nil
	}
	return checkpoint.Save(r.Path, st)
}

// canceled reports whether err is a context cancellation rather than a
// genuine optimization failure.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finalCheckpoint writes the shutdown snapshot after a cancellation, if
// a path is set. The cancellation error still wins; a checkpoint failure
// is attached to it.
func (r Resilience) finalCheckpoint(cause error, st *checkpoint.State) error {
	if err := r.save(st); err != nil {
		return errors.Join(cause, fmt.Errorf("infer: shutdown checkpoint failed: %w", err))
	}
	return cause
}
