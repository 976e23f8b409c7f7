// Package infer estimates the influence/selectivity embeddings from
// observed cascades by maximizing the cascade log-likelihood (paper §IV).
// Every fit but Hogwild takes closed-form EM steps (ECM): for fixed B,
// Eq. 8 is concave in A and for fixed A concave in B, and each block has
// a monotone closed-form update built from the positive and negative
// parts of the gradient's sums (Eqs. 14 and 16), taken as a MAP update
// under a rate prior (emPrior). It provides:
//
//   - Sequential: full-batch EM over all nodes — the single-process
//     baseline (and the paper's t_1 reference for speedup);
//   - Hierarchical: Algorithm 2 — runs Algorithm 1 (one worker per
//     community updating disjoint rows of A and B on that community's
//     sub-cascades, lock-free because communities never intersect) level
//     by level up the community merge tree, warm-starting each level
//     with the previous level's embeddings;
//   - Refine (refine.go): the same EM warm-started from a fitted model,
//     the online refit over every cascade the model should explain;
//   - Hogwild (hogwild.go): the lock-free shared-matrix SGD baseline of
//     the paper's reference [19], for comparison.
//
// HierarchicalCtx is the one fit with cancellation, checkpoints and
// resume, all at hierarchy level boundaries (resilience.go): Algorithm
// 2's only globally consistent states, saved to one checkpoint file
// (internal/checkpoint). Every fit has a divergence guard: an EM fit
// fails at its first non-finite epoch, and Hogwild, the one fit with a
// step, retries such an epoch at a halved step.
package infer

import (
	"context"
	"fmt"
	"math"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// Config controls the optimization. The zero value is unusable; call
// WithDefaults or fill every field.
type Config struct {
	// K is the number of latent topics.
	K int
	// MaxIter bounds the number of epochs per optimization stage (the
	// paper's "max number of iterations" early-stopping guard).
	MaxIter int
	// Tol declares convergence when an accepted epoch improves EM's
	// objective, the penalized log-likelihood, by less than
	// Tol*(1+|obj|).
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
	// LogLik holds EM's objective, the log-likelihood penalized by the
	// rate prior (emPrior.objective), before the first and after each
	// accepted epoch (Sequential, Refine); the full-data log-likelihood
	// after each level (Hierarchical); or the plain log-likelihood after
	// each epoch (Hogwild).
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
	LogLik      float64 // full-data log-likelihood after the level
	// TaskWork holds, for every community that had work at this level
	// in community order, the infections in its sub-cascades times the
	// EM sweeps (embed.EMAccum passes) its fit ran: a count of the work
	// done, the same at any worker count.
	TaskWork []int
}

// Sequential fits a model to the cascades with full-batch closed-form
// EM over all n nodes (emCtx). This is the single-process baseline the
// paper's speedups are measured against.
func Sequential(cs []*cascade.Cascade, n int, cfg Config) (*embed.Model, *Trace, error) {
	cfg = cfg.WithDefaults()
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
	fit, err := emCtx(context.Background(), m, cs, cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, &Trace{LogLik: fit.trace(m, cs), Iters: fit.epochs, Elapsed: time.Since(start)}, nil
}

// emCtx fits m to cs by closed-form expectation conditional maximization
// (ECM; Meng & Rubin 1993) until convergence, cfg.MaxIter epochs, or
// cancellation. Each epoch
//
//  1. runs the E-step, embed.EMAccum over every cascade, which also
//     yields the log-likelihood of the model as it stands;
//  2. sets A ← numA/(denA+βA) wherever denA > 0: for fixed B, Eq. 8 is
//     concave in A and this is its MAP EM maximizer;
//  3. sums the B-exposures under the new A (embed.EMDenB) and sets
//     B ← numB/(denB+βB) wherever denB > 0.
//
// βA and βB are the call's rate prior (emPrior), fixed by its first
// epoch, and the objective is the penalized log-likelihood
// (emPrior.objective). Neither block update can lower it, so the
// trajectory is monotone with no step size, preconditioner, projection
// or line search: a ratio of non-negative sums is non-negative. A zero
// denominator (a node with no exposure in the data) keeps its entry. The
// loop stops at an epoch that improves the objective by less than
// cfg.Tol*(1+|obj|).
//
// A model that is already corrupt (non-finite or negative entries)
// fails before the first E-step. Divergence guard: m is only written
// after a whole epoch's new A and B are verified finite, and a
// non-finite likelihood, statistic or update fails the fit at once with
// a descriptive error, m untouched. An epoch is deterministic — the sums
// run in a fixed cascade order over an unchanged m — so re-running it
// could only fail the same way.
//
// It returns what the fit did (emFit); the objective after the last
// accepted epoch is left to the callers that report it (emFit.trace).
func emCtx(ctx context.Context, m *embed.Model, cs []*cascade.Cascade, cfg Config) (fit emFit, err error) {
	if len(cs) == 0 {
		return fit, nil
	}
	if err := m.Validate(); err != nil {
		return fit, fmt.Errorf("infer: starting model is corrupt before fit: %w", err)
	}
	n, k := m.N(), m.K()
	numA, denA := vecmath.NewMatrix(n, k), vecmath.NewMatrix(n, k)
	numB, denB := vecmath.NewMatrix(n, k), vecmath.NewMatrix(n, k)
	solved := &embed.Model{A: numA, B: m.B} // the model under the epoch's new A
	ws := embed.NewGradWorkspace(k)
	prior := &fit.prior
	diverged := func(what string) error {
		return fmt.Errorf("infer: non-finite EM %s at epoch %d — optimization diverged", what, fit.epochs)
	}
	for fit.epochs < cfg.MaxIter {
		if err := ctx.Err(); err != nil {
			return fit, err
		}
		numA.FillConst(0)
		denA.FillConst(0)
		numB.FillConst(0)
		var ll float64
		for _, c := range cs {
			ll += m.EMAccum(c, numA, denA, numB, ws)
		}
		fit.sweeps++
		if !finite(ll) || !vecmath.AllFinite(numA.Data) || !vecmath.AllFinite(denA.Data) || !vecmath.AllFinite(numB.Data) {
			return fit, diverged("statistics or likelihood")
		}
		if fit.stale {
			// ll is the last accepted epoch's likelihood.
			obj := prior.objective(m, ll)
			gain := obj - last(fit.lls)
			fit.lls = append(fit.lls, obj)
			fit.stale = false
			if gain <= cfg.Tol*(1+math.Abs(obj)) {
				return fit, nil
			}
		}
		if !prior.set {
			prior.a = pseudoExposure * meanPositive(denA.Data)
		}
		solve(numA.Data, denA.Data, m.A.Data, prior.a)
		denB.FillConst(0)
		for _, c := range cs {
			solved.EMDenB(c, denB)
		}
		if !prior.set {
			prior.b = pseudoExposure * meanPositive(denB.Data)
			prior.set = true
		}
		solve(numB.Data, denB.Data, m.B.Data, prior.b)
		if len(fit.lls) == 0 {
			fit.lls = append(fit.lls, prior.objective(m, ll)) // m is still the start
		}
		if !vecmath.AllFinite(numA.Data) || !vecmath.AllFinite(numB.Data) {
			return fit, diverged("update")
		}
		m.A.CopyFrom(numA)
		m.B.CopyFrom(numB)
		fit.epochs++
		fit.stale = true
	}
	return fit, nil
}

// emFit is what one emCtx call did.
type emFit struct {
	epochs int // accepted epochs
	sweeps int // E-step passes
	// lls is the objective before the first epoch and after every
	// accepted epoch a later E-step measured. stale means m has moved
	// since its last entry: the fit stopped at MaxIter, or was stopped,
	// before measuring its last epoch.
	lls   []float64
	stale bool
	prior emPrior
}

// trace returns lls closed with the objective of the model the fit
// left, m: one more likelihood pass when the last epoch is unmeasured,
// which only a caller that reports the trace pays for.
func (f *emFit) trace(m *embed.Model, cs []*cascade.Cascade) []float64 {
	if f.stale {
		return append(f.lls, f.prior.objective(m, m.LogLikAll(cs)))
	}
	return f.lls
}

// pseudoExposure sets the rate prior's strength. Every entry of A and B
// carries a Gamma(1, β) prior, so each M-step is the MAP update
// num/(den+β): the entry is fitted as if, besides its data, it had been
// exposed for pseudoExposure times its block's mean exposure without an
// infection. Without it the update is num/den, and a
// node seen a few times at short delays gets a rate near 1/delay: on
// sparse data the fit overfits without bound (held-out likelihood per
// infection −1.9·10⁷ on the GDELT corpus). β scales with the data's own
// exposures, so the prior means the same whatever the unit of time or
// the scale split between A and B. The value is picked on the SBM and
// GDELT draws in EXPERIMENTS.md ("A rate prior"): of 0.1, 0.2, 0.3, 0.5,
// 1 and 3, 0.3 has the best held-out likelihood per infection on GDELT
// and is within 0.02 of the best on the SBM draws (0.1 overfits GDELT,
// 1 underfits the SBM).
const pseudoExposure = 0.3

// emPrior is one fit's rate prior: β for the entries of A and of B,
// pseudoExposure times the mean positive denominator of that block in
// the fit's first epoch (set once they are known), held for the rest of
// the fit so that every epoch climbs the same objective. A fit's prior
// is a function of its cascades and its starting model alone.
type emPrior struct {
	a, b float64
	set  bool
}

// objective is EM's objective for m given its log-likelihood ll: the
// log posterior under the prior up to a constant, ll − βA·ΣA − βB·ΣB.
func (p *emPrior) objective(m *embed.Model, ll float64) float64 {
	return ll - p.a*vecmath.Sum(m.A.Data) - p.b*vecmath.Sum(m.B.Data)
}

// meanPositive is the mean of xs's positive entries, 0 if there are none.
func meanPositive(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// solve is an M-step in place: num[i] ← num[i]/(den[i]+beta), the MAP
// update, wherever den[i] > 0, and the current value cur[i] elsewhere.
func solve(num, den, cur []float64, beta float64) {
	for i, d := range den {
		if d > 0 {
			num[i] /= d + beta
		} else {
			num[i] = cur[i]
		}
	}
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
