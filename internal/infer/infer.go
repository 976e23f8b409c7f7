// Package infer estimates the influence/selectivity embeddings from
// observed cascades by maximizing the cascade log-likelihood with
// projected gradient ascent (paper §IV). It provides:
//
//   - Sequential: full-batch monotone projected gradient ascent — the
//     single-process baseline (and the paper's t_1 reference for speedup);
//   - Hierarchical: Algorithm 2 — runs Algorithm 1 (one worker per
//     community updating disjoint rows of A and B on that community's
//     sub-cascades, lock-free because communities never intersect) level
//     by level up the community merge tree, warm-starting each level
//     with the previous level's embeddings;
//   - Hogwild (hogwild.go): the lock-free shared-matrix SGD baseline of
//     the paper's reference [19], for comparison.
package infer

import (
	"context"
	"fmt"
	"math"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
	"viralcast/internal/faultinject"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// Config controls the optimization. The zero value is unusable; call
// WithDefaults or fill every field.
type Config struct {
	// K is the number of latent topics.
	K int
	// LearnRate is the initial gradient-ascent step size. The monotone
	// line search shrinks it automatically when a step would decrease the
	// likelihood, so it mostly controls how aggressively ascent begins.
	LearnRate float64
	// MaxIter bounds the number of epochs per optimization stage (the
	// paper's "max number of iterations" early-stopping guard).
	MaxIter int
	// Tol declares convergence when an accepted step improves the
	// log-likelihood by less than Tol*(1+|ll|).
	Tol float64
	// InitLo and InitHi bound the uniform random initialization.
	InitLo, InitHi float64
	// Seed drives initialization (and any stochastic variant).
	Seed uint64
}

// WithDefaults fills unset fields with sensible values.
func (c Config) WithDefaults() Config {
	if c.K <= 0 {
		c.K = 4
	}
	if c.LearnRate <= 0 {
		// Directions are Adagrad-normalized, so coordinate steps are
		// roughly LearnRate-sized on first epochs.
		c.LearnRate = 0.5
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 50
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.InitHi <= c.InitLo || c.InitHi <= 0 {
		c.InitLo, c.InitHi = 0.1, 0.5
	}
	return c
}

// Validate rejects configurations that cannot run.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("infer: K must be positive, got %d", c.K)
	}
	if c.LearnRate <= 0 {
		return fmt.Errorf("infer: LearnRate must be positive, got %v", c.LearnRate)
	}
	if c.MaxIter <= 0 {
		return fmt.Errorf("infer: MaxIter must be positive, got %d", c.MaxIter)
	}
	if c.InitLo < 0 || c.InitHi <= c.InitLo {
		return fmt.Errorf("infer: bad init range [%v,%v]", c.InitLo, c.InitHi)
	}
	return nil
}

// Trace records the progress of an optimization run.
type Trace struct {
	// LogLik holds the total log-likelihood after each accepted epoch
	// (Sequential) or after each level (Hierarchical).
	LogLik []float64
	// Iters is the total number of accepted epochs.
	Iters int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Levels holds per-level statistics for hierarchical runs.
	Levels []LevelStats
}

// LevelStats describes one level of the hierarchical algorithm.
type LevelStats struct {
	Communities int
	Elapsed     time.Duration
	LogLik      float64 // full-data log-likelihood after the level
	// TaskDurations holds the measured optimization time of every
	// community that had work at this level.
	TaskDurations []time.Duration
}

// Sequential fits a model to the cascades with full-batch monotone
// projected gradient ascent over all n nodes. This is the single-process
// baseline the paper's speedups are measured against.
func Sequential(cs []*cascade.Cascade, n int, cfg Config) (*embed.Model, *Trace, error) {
	return SequentialCtx(context.Background(), cs, n, cfg, Resilience{})
}

// SequentialCtx is Sequential with cancellation and resilience: the
// epoch loop stops at the next boundary once ctx is done (writing a
// final checkpoint if one is configured), snapshots are taken every
// res.CheckpointEvery accepted epochs, and res.Resume warm-starts from a
// previous snapshot's model, epoch counter, and step size.
func SequentialCtx(ctx context.Context, cs []*cascade.Cascade, n int, cfg Config, res Resilience) (*embed.Model, *Trace, error) {
	cfg = cfg.WithDefaults()
	res = res.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("infer: n must be positive, got %d", n)
	}
	if err := cascade.ValidateAll(cs, n); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	m := embed.NewModel(n, cfg.K)
	m.InitUniform(xrand.New(cfg.Seed), cfg.InitLo, cfg.InitHi)
	opts := ascendOpts{maxBackoffs: res.MaxBackoffs}
	if res.Resume != nil {
		if err := res.Resume.validate(n, cfg.K, cfg.Seed); err != nil {
			return nil, nil, err
		}
		m = res.Resume.Model.Clone()
		opts.startEpoch = res.Resume.Epoch
		opts.baseLR = res.Resume.Step
	}
	if res.Checkpoint != nil {
		opts.onEpoch = func(epoch int, lr, ll float64) error {
			if epoch%res.CheckpointEvery != 0 {
				return nil
			}
			return res.Checkpoint(FitState{Model: m.Clone(), Epoch: epoch, Step: lr, Seed: cfg.Seed, LogLik: ll})
		}
	}
	epochs, lls, lastLR, err := ascendCtx(ctx, m, cs, cfg, opts)
	if err != nil {
		if canceled(err) {
			err = res.finalCheckpoint(err, FitState{
				Model: m.Clone(), Epoch: epochs, Step: lastLR, Seed: cfg.Seed, LogLik: last(lls),
			})
		}
		return nil, nil, err
	}
	if res.Checkpoint != nil {
		if err := res.Checkpoint(FitState{Model: m.Clone(), Epoch: epochs, Step: lastLR, Seed: cfg.Seed, LogLik: last(lls)}); err != nil {
			return nil, nil, err
		}
	}
	return m, &Trace{LogLik: lls, Iters: epochs, Elapsed: time.Since(start)}, nil
}

// ascendOpts carries the resilience knobs into the inner ascent loop.
type ascendOpts struct {
	// startEpoch is how many accepted epochs a resumed stage has already
	// completed; the loop runs until cfg.MaxIter total.
	startEpoch int
	// baseLR overrides cfg.LearnRate as the line-search base step (a
	// resumed run continues with its backed-off step); 0 means use the
	// config's.
	baseLR float64
	// maxBackoffs bounds divergence retries; 0 means the default.
	maxBackoffs int
	// onEpoch runs after every accepted epoch (the model is at the new
	// accepted state); returning an error aborts the ascent.
	onEpoch func(epoch int, baseLR, ll float64) error
}

// ascend is ascendCtx without cancellation or resilience options —
// the form the per-community workers use.
func ascend(m *embed.Model, cs []*cascade.Cascade, cfg Config) (int, []float64, error) {
	epochs, lls, _, err := ascendCtx(context.Background(), m, cs, cfg, ascendOpts{})
	return epochs, lls, err
}

// ascendCtx performs monotone projected gradient ascent on m over cs
// until convergence, cfg.MaxIter total epochs, or cancellation. The raw
// gradient of the cascade likelihood is badly scaled (the 1/rate terms
// give some coordinates enormous curvature), so the ascent direction is
// diagonally preconditioned Adagrad-style: d_i = g_i / sqrt(acc_i),
// where acc_i accumulates squared gradients. Each epoch runs a fresh
// backtracking line search from the base step, halving until the step
// does not decrease the log-likelihood; because every epoch retries the
// full base step, a tiny accepted gain genuinely signals convergence.
//
// Divergence guard: m is only written after a candidate step is verified
// finite and non-decreasing, so the model itself is always the last good
// snapshot. A non-finite gradient or a line search that only produced
// non-finite likelihoods rolls back (discards the candidate buffers),
// halves the base step, and retries, up to maxBackoffs times before
// failing with a descriptive error instead of emitting garbage
// embeddings.
//
// It returns the total accepted epoch count (including opts.startEpoch),
// the log-likelihood trajectory, and the final base step size.
func ascendCtx(ctx context.Context, m *embed.Model, cs []*cascade.Cascade, cfg Config, opts ascendOpts) (int, []float64, float64, error) {
	baseLR := opts.baseLR
	if baseLR <= 0 {
		baseLR = cfg.LearnRate
	}
	if len(cs) == 0 {
		return opts.startEpoch, nil, baseLR, nil
	}
	maxBackoffs := opts.maxBackoffs
	if maxBackoffs <= 0 {
		maxBackoffs = defaultMaxBackoffs
	}
	n, k := m.N(), m.K()
	dA := vecmath.NewMatrix(n, k)
	dB := vecmath.NewMatrix(n, k)
	accA := vecmath.NewMatrix(n, k) // Adagrad accumulators
	accB := vecmath.NewMatrix(n, k)
	candA := vecmath.NewMatrix(n, k)
	candB := vecmath.NewMatrix(n, k)
	ws := embed.NewGradWorkspace(k)
	cur := m.LogLikAll(cs)
	if !finite(cur) {
		return opts.startEpoch, nil, baseLR, fmt.Errorf("infer: starting log-likelihood is %v — model or data corrupt before ascent", cur)
	}
	lls := []float64{cur}
	const minLR = 1e-12
	const accEps = 1e-8
	epoch := opts.startEpoch
	backoffs := 0
	for epoch < cfg.MaxIter {
		if err := ctx.Err(); err != nil {
			return epoch, lls, baseLR, err
		}
		// Fault site "infer.epoch": tests inject errors here or cancel the
		// context at an exact epoch to simulate a mid-training SIGINT.
		if err := faultinject.Fire("infer.epoch"); err != nil {
			return epoch, lls, baseLR, err
		}
		if err := ctx.Err(); err != nil {
			return epoch, lls, baseLR, err
		}
		dA.FillConst(0)
		dB.FillConst(0)
		for _, c := range cs {
			m.AccumGrad(c, dA, dB, ws)
		}
		// Fault site "infer.grad": tests poison the freshly accumulated
		// gradient with NaN to exercise the divergence guard.
		faultinject.PoisonFloats("infer.grad", dA.Data)
		if !vecmath.AllFinite(dA.Data) || !vecmath.AllFinite(dB.Data) {
			// Guard before the Adagrad accumulators are touched: a NaN that
			// reaches acc would poison every later epoch.
			backoffs++
			if backoffs > maxBackoffs {
				return epoch, lls, baseLR, fmt.Errorf(
					"infer: non-finite gradient at epoch %d persisted through %d step-halving retries (loglik %.6g) — optimization diverged", epoch, maxBackoffs, cur)
			}
			baseLR /= 2
			continue
		}
		// Precondition in place: d_i <- g_i / sqrt(acc_i + g_i^2).
		precondition(dA.Data, accA.Data, accEps)
		precondition(dB.Data, accB.Data, accEps)
		improved := false
		sawNonFinite := false
		var ll float64
		for lr := baseLR; lr >= minLR; lr /= 2 {
			candA.CopyFrom(m.A)
			candB.CopyFrom(m.B)
			vecmath.Axpy(lr, dA.Data, candA.Data)
			vecmath.Axpy(lr, dB.Data, candB.Data)
			candA.ProjectNonneg()
			candB.ProjectNonneg()
			trial := &embed.Model{A: candA, B: candB}
			ll = trial.LogLikAll(cs)
			if !finite(ll) {
				sawNonFinite = true
				continue // overflowed step: halve and retry
			}
			if ll >= cur {
				improved = true
				break
			}
		}
		if !improved {
			if sawNonFinite {
				// Every acceptable step overflowed the likelihood: back off
				// the base step (m is untouched — the rollback is implicit).
				backoffs++
				if backoffs > maxBackoffs {
					return epoch, lls, baseLR, fmt.Errorf(
						"infer: likelihood non-finite at epoch %d after %d step-halving retries (last good loglik %.6g) — optimization diverged", epoch, maxBackoffs, cur)
				}
				baseLR /= 2
				continue
			}
			break // no step along the preconditioned direction helps
		}
		m.A.CopyFrom(candA)
		m.B.CopyFrom(candB)
		epoch++
		backoffs = 0 // the budget is per failure streak, not per stage
		lls = append(lls, ll)
		gain := ll - cur
		cur = ll
		if opts.onEpoch != nil {
			if err := opts.onEpoch(epoch, baseLR, ll); err != nil {
				return epoch, lls, baseLR, err
			}
		}
		if gain <= cfg.Tol*(1+abs(cur)) {
			break
		}
	}
	return epoch, lls, baseLR, nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// last returns the final element of xs, or 0 when empty.
func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// precondition rescales the gradient g coordinate-wise by the inverse
// root of its accumulated squared magnitude (Adagrad), updating acc.
func precondition(g, acc []float64, eps float64) {
	for i, gi := range g {
		acc[i] += gi * gi
		if acc[i] > 0 {
			g[i] = gi / math.Sqrt(acc[i]+eps)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
