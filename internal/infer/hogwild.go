package infer

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
	"viralcast/internal/pool"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// Hogwild is the lock-free shared-matrix stochastic gradient baseline
// (the paper's reference [19], Recht et al.) against which the
// community-partitioned design is compared. Workers process random
// cascades and apply per-cascade gradient updates directly to the shared
// A and B matrices. Updates use atomic compare-and-swap on the float64
// bit patterns — lock-free in the Hogwild spirit while remaining
// race-detector clean — and the projection onto the non-negative orthant
// is folded into every write.
//
// HogwildOptions.Epochs counts passes over the cascade set (spread across
// workers); the step size decays as LearnRate/(1+epoch). Hogwild is the
// only fit that takes a step: the EM fits need none.
type HogwildOptions struct {
	Workers   int
	Epochs    int
	LearnRate float64
}

// maxBackoffs bounds how many consecutive times Hogwild may roll back a
// non-finite epoch and retry it at a halved step before giving up with
// an error.
const maxBackoffs = 6

// hogwildClipNorm bounds the per-cascade gradient Euclidean norm;
// stochastic steps on the 1/rate terms otherwise occasionally explode.
const hogwildClipNorm = 10

func (o HogwildOptions) withDefaults() HogwildOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Epochs <= 0 {
		o.Epochs = 10
	}
	if o.LearnRate <= 0 {
		o.LearnRate = 0.5
	}
	return o
}

// atomicMatrix stores float64 values as atomic bit patterns so concurrent
// unsynchronized-by-design updates stay well-defined.
type atomicMatrix struct {
	rows, cols int
	data       []atomic.Uint64
}

func newAtomicMatrix(rows, cols int) *atomicMatrix {
	return &atomicMatrix{rows: rows, cols: cols, data: make([]atomic.Uint64, rows*cols)}
}

func (m *atomicMatrix) load(i, j int) float64 {
	return math.Float64frombits(m.data[i*m.cols+j].Load())
}

func (m *atomicMatrix) store(i, j int, v float64) {
	m.data[i*m.cols+j].Store(math.Float64bits(v))
}

// addClamp atomically applies x <- max(0, x+delta) to element (i, j).
func (m *atomicMatrix) addClamp(i, j int, delta float64) {
	cell := &m.data[i*m.cols+j]
	for {
		old := cell.Load()
		next := math.Float64frombits(old) + delta
		if next < 0 {
			next = 0
		}
		if cell.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// snapshot copies the current matrix into a plain Matrix.
func (m *atomicMatrix) snapshot() *vecmath.Matrix {
	out := vecmath.NewMatrix(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(i, j, m.load(i, j))
		}
	}
	return out
}

// restore writes a plain matrix back into the atomic storage — the
// rollback path of the divergence guard.
func (m *atomicMatrix) restore(src *vecmath.Matrix) {
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			m.store(i, j, src.At(i, j))
		}
	}
}

// Hogwild fits a model with lock-free parallel stochastic gradient
// ascent over shared matrices. Epochs are the divergence guard's
// boundary: it snapshots the matrices after each epoch, and an epoch
// that ends with a non-finite model or likelihood is rolled back and
// retried with a halved step scale, up to maxBackoffs consecutive times
// — the same cascades are resampled (same epoch seed), but the smaller
// steps keep the 1/rate terms bounded. The step scale multiplies the
// 1/(1+epoch) decay schedule.
func Hogwild(cs []*cascade.Cascade, n int, cfg Config, opts HogwildOptions) (*embed.Model, *Trace, error) {
	cfg = cfg.WithDefaults()
	opts = opts.withDefaults()
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
	k := cfg.K
	a := newAtomicMatrix(n, k)
	b := newAtomicMatrix(n, k)
	init := xrand.New(cfg.Seed)
	span := cfg.InitHi - cfg.InitLo
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			a.store(i, j, cfg.InitLo+span*init.Float64())
			b.store(i, j, cfg.InitLo+span*init.Float64())
		}
	}
	tr := &Trace{}
	// goodA/goodB is the last epoch-boundary state known to be finite:
	// the rollback target, and the fit once the last epoch is accepted.
	goodA, goodB := a.snapshot(), b.snapshot()
	lrScale := 1.0
	backoffs := 0
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		lr := lrScale * opts.LearnRate / float64(1+epoch)
		epochSeed := cfg.Seed ^ uint64(epoch*1000003)
		// Hogwild's defining property is that the workers share a and b
		// with no coordination between updates; the pool only bounds how
		// many run and provides the end-of-epoch barrier.
		err := pool.Run(opts.Workers, opts.Workers, func(w int) error {
			hogwildWorker(cs, a, b, k, lr, xrand.New(epochSeed+uint64(w)+1), len(cs)/opts.Workers+1)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		snapA, snapB := a.snapshot(), b.snapshot()
		ll := (&embed.Model{A: snapA, B: snapB}).LogLikAll(cs)
		if !finite(ll) || !vecmath.AllFinite(snapA.Data) || !vecmath.AllFinite(snapB.Data) {
			backoffs++
			if backoffs > maxBackoffs {
				return nil, nil, fmt.Errorf(
					"infer: hogwild diverged at epoch %d: non-finite model or likelihood persisted through %d halved-step retries", epoch, maxBackoffs)
			}
			a.restore(goodA)
			b.restore(goodB)
			lrScale /= 2
			epoch-- // retry the epoch at the reduced step
			continue
		}
		backoffs = 0
		goodA, goodB = snapA, snapB
		tr.LogLik = append(tr.LogLik, ll)
		tr.Iters++
	}
	tr.Elapsed = time.Since(start)
	return &embed.Model{A: goodA, B: goodB}, tr, nil
}

// hogwildWorker applies per-cascade stochastic updates for `steps`
// randomly chosen cascades.
func hogwildWorker(cs []*cascade.Cascade, a, b *atomicMatrix, k int, lr float64, rng *xrand.RNG, steps int) {
	ws := embed.NewGradWorkspace(k)
	for s := 0; s < steps; s++ {
		c := cs[rng.Intn(len(cs))]
		if c.Size() < 2 {
			continue
		}
		// Localize the cascade: copy the touched rows into a compact model.
		sz := c.Size()
		local := embed.NewModel(sz, k)
		lc := &cascade.Cascade{ID: c.ID, Infections: make([]cascade.Infection, sz)}
		for li, inf := range c.Infections {
			for j := 0; j < k; j++ {
				local.A.Set(li, j, a.load(inf.Node, j))
				local.B.Set(li, j, b.load(inf.Node, j))
			}
			lc.Infections[li] = cascade.Infection{Node: li, Time: inf.Time}
		}
		dA := vecmath.NewMatrix(sz, k)
		dB := vecmath.NewMatrix(sz, k)
		local.AccumGrad(lc, dA, dB, ws)
		// First line of the divergence defense: a non-finite per-cascade
		// gradient (a degenerate rate, or a non-finite shared cell) is
		// dropped before it can poison the shared matrices. addClamp
		// would propagate a single NaN to every later read of that cell.
		if !vecmath.AllFinite(dA.Data) || !vecmath.AllFinite(dB.Data) {
			continue
		}
		// Clip the joint gradient norm to keep stochastic steps bounded.
		norm := math.Sqrt(sq(vecmath.Norm2(dA.Data)) + sq(vecmath.Norm2(dB.Data)))
		scale := lr
		if norm > hogwildClipNorm {
			scale = lr * hogwildClipNorm / norm
		}
		for li, inf := range c.Infections {
			for j := 0; j < k; j++ {
				if d := dA.At(li, j); d != 0 {
					a.addClamp(inf.Node, j, scale*d)
				}
				if d := dB.At(li, j); d != 0 {
					b.addClamp(inf.Node, j, scale*d)
				}
			}
		}
	}
}

func sq(x float64) float64 { return x * x }
