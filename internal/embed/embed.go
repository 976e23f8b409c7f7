// Package embed implements the paper's node-embedding cascade model.
//
// Every node u has a non-negative influence vector A[u] and selectivity
// vector B[u] over K latent topics. The hazard of u infecting v after
// delay dt is the inner product A[u]·B[v] (paper Eq. 6) and the survival
// probability is exp(-A[u]·B[v]·dt) (Eq. 7). The per-cascade
// log-likelihood (Eq. 8) is
//
//	L_c = sum_{v in c} [ sum_{l<v} (t_l - t_v) A[l]·B[v] + ln sum_{u<v} A[u]·B[v] ]
//
// where "<" orders nodes by infection time within the cascade and the
// seed (first infection) contributes no term. Both the likelihood and its
// gradient are computed in time linear in the cascade length using the
// running aggregates H(v), G(v) (Eqs. 13-15) on a forward sweep and
// P(u), Q(u) plus the ratio sum (Eq. 16) on a backward sweep.
package embed

import (
	"fmt"
	"math"

	"viralcast/internal/cascade"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// EpsRate floors the aggregate hazard H(v)·B[v] wherever it appears in a
// logarithm or a denominator, keeping the optimization finite when a
// node's predecessors currently carry zero influence mass.
const EpsRate = 1e-12

// Model holds the influence (A) and selectivity (B) embeddings for n
// nodes over K topics. Rows of A and B are owned by the model; the infer
// package's parallel algorithm relies on distinct communities touching
// disjoint rows.
type Model struct {
	A *vecmath.Matrix // n x K influence
	B *vecmath.Matrix // n x K selectivity
}

// NewModel allocates a zeroed model for n nodes and k topics.
func NewModel(n, k int) *Model {
	if n <= 0 || k <= 0 {
		panic(fmt.Sprintf("embed: NewModel requires positive dims, got n=%d k=%d", n, k))
	}
	return &Model{A: vecmath.NewMatrix(n, k), B: vecmath.NewMatrix(n, k)}
}

// N returns the number of nodes.
func (m *Model) N() int { return m.A.RowsN }

// K returns the number of topics.
func (m *Model) K() int { return m.A.ColsN }

// InitUniform fills both matrices with samples uniform in (lo, hi),
// a standard non-negative warm start for projected gradient ascent.
func (m *Model) InitUniform(rng *xrand.RNG, lo, hi float64) {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("embed: InitUniform bad range [%v,%v]", lo, hi))
	}
	span := hi - lo
	for i := range m.A.Data {
		m.A.Data[i] = lo + span*rng.Float64()
	}
	for i := range m.B.Data {
		m.B.Data[i] = lo + span*rng.Float64()
	}
}

// Clone deep-copies the model.
func (m *Model) Clone() *Model {
	return &Model{A: m.A.Clone(), B: m.B.Clone()}
}

// Rate returns the hazard rate A[u]·B[v] of u infecting v.
func (m *Model) Rate(u, v int) float64 {
	return vecmath.Dot(m.A.Row(u), m.B.Row(v))
}

// Validate checks model invariants: matching shapes, non-negative and
// finite entries.
func (m *Model) Validate() error {
	if m.A.RowsN != m.B.RowsN || m.A.ColsN != m.B.ColsN {
		return fmt.Errorf("embed: A is %dx%d but B is %dx%d",
			m.A.RowsN, m.A.ColsN, m.B.RowsN, m.B.ColsN)
	}
	if !vecmath.AllFinite(m.A.Data) || !vecmath.AllFinite(m.B.Data) {
		return fmt.Errorf("embed: non-finite entries in model")
	}
	if !vecmath.AllNonneg(m.A.Data) || !vecmath.AllNonneg(m.B.Data) {
		return fmt.Errorf("embed: negative entries in model")
	}
	return nil
}

// LogLik returns the log-likelihood of one cascade under the model
// (Eq. 8), computed in O(len(c) * K). Cascades of size < 2 contribute 0.
func (m *Model) LogLik(c *cascade.Cascade) float64 {
	return m.logLik(c, make([]float64, m.K()), make([]float64, m.K()))
}

// The log terms of one cascade are taken as the logarithm of the product
// of its hazards, one math.Log per cascade instead of one per infection.
// The running product is kept inside [hazardLo, hazardHi] by moving its
// binary exponent into an integer whenever it leaves that band; a factor
// that is itself outside the band (above it: hazards are floored at
// EpsRate) is reduced first, so the product of an in-band value and a
// factor can neither overflow nor underflow.
const (
	hazardLo = 0x1p-500
	hazardHi = 0x1p+500
)

// logLik is LogLik on caller-owned scratch: h and g have length K and
// are zeroed here. The result is within 1e-12·(1+|ll|) of the
// term-by-term sum of Eq. 8 (a few ulp in practice); a NaN or ±Inf hazard
// still yields a non-finite likelihood, which the divergence guard in
// package infer relies on.
func (m *Model) logLik(c *cascade.Cascade, h, g []float64) float64 {
	k := m.A.ColsN
	if m.B.ColsN != k {
		panic("embed: LogLik on a model whose A and B widths differ")
	}
	a, b := m.A.Data, m.B.Data
	h, g = h[:k], g[:k]
	for j := range h {
		h[j] = 0 // H = sum of A[l] over already-infected l
		g[j] = 0 // G = sum of t_l * A[l]
	}
	var linear float64 // sum of the survival terms
	prod, exp := 1.0, 0
	for i, inf := range c.Infections {
		off := inf.Node * k
		if i > 0 {
			bv := b[off : off+k : off+k]
			var hb, gb float64
			for j, x := range bv {
				hb += h[j] * x
				gb += g[j] * x
			}
			// sum_{l<v} (t_l - t_v) A[l]·B[v] = G·B[v] - t_v * H·B[v]
			linear += gb - inf.Time*hb
			if hb < EpsRate {
				hb = EpsRate
			}
			// Negated comparisons so a NaN takes the Frexp path too; Frexp
			// returns NaN and ±Inf unchanged, keeping the product non-finite.
			if !(hb <= hazardHi) {
				fr, e := math.Frexp(hb)
				hb, exp = fr, exp+e
			}
			prod *= hb
			if !(prod >= hazardLo && prod <= hazardHi) {
				fr, e := math.Frexp(prod)
				prod, exp = fr, exp+e
			}
		}
		t := inf.Time
		for j, x := range a[off : off+k : off+k] {
			h[j] += x
			g[j] += t * x
		}
	}
	return linear + (math.Log(prod) + float64(exp)*math.Ln2)
}

// LogLikAll sums LogLik over all cascades, on one pair of scratch vectors.
func (m *Model) LogLikAll(cs []*cascade.Cascade) float64 {
	h, g := make([]float64, m.K()), make([]float64, m.K())
	var s float64
	for _, c := range cs {
		s += m.logLik(c, h, g)
	}
	return s
}

// GradWorkspace holds the scratch buffers AccumGrad needs, so the hot
// training loop performs no per-cascade allocation. A workspace may be
// reused across cascades but not shared between goroutines.
type GradWorkspace struct {
	h, g, p, q, r []float64
	inv           []float64 // 1/d_v per cascade position
}

// NewGradWorkspace allocates a workspace for models with k topics.
func NewGradWorkspace(k int) *GradWorkspace {
	return &GradWorkspace{
		h: make([]float64, k),
		g: make([]float64, k),
		p: make([]float64, k),
		q: make([]float64, k),
		r: make([]float64, k),
	}
}

// AccumGrad adds the gradient of LogLik(c) with respect to A and B into
// dA and dB (paper Eqs. 12-16). It runs two sweeps over the cascade:
//
//   - forward, accumulating H(v) and G(v) and recording the denominators
//     d_v = H(v)·B[v] (floored at EpsRate);
//   - backward, accumulating P(u) = sum B[v], Q(u) = sum t_v B[v], and
//     R(u) = sum B[v]/d_v over successors v of u.
//
// Gradients: dB[v] += G(v) - t_v H(v) + H(v)/d_v
//
//	dA[u] += t_u P(u) - Q(u) + R(u)
//
// Every sweep step is one pass over the K columns of the rows involved.
// Complexity O(len(c) * K); no allocation beyond the reusable workspace.
func (m *Model) AccumGrad(c *cascade.Cascade, dA, dB *vecmath.Matrix, ws *GradWorkspace) {
	n := len(c.Infections)
	if n < 2 {
		return
	}
	k := m.A.ColsN
	if m.B.ColsN != k || dA.ColsN != k || dB.ColsN != k {
		panic("embed: AccumGrad on matrices of differing widths")
	}
	a, b := m.A.Data, m.B.Data
	h, g := ws.h[:k], ws.g[:k]
	for j := range h {
		h[j], g[j] = 0, 0
	}
	if cap(ws.inv) < n {
		ws.inv = make([]float64, n)
	}
	inv := ws.inv[:n]
	// Forward sweep: B-gradients and denominators.
	for i, inf := range c.Infections {
		off := inf.Node * k
		t := inf.Time
		if i > 0 {
			var d float64
			for j, x := range b[off : off+k : off+k] {
				d += h[j] * x
			}
			if d < EpsRate {
				d = EpsRate
			}
			inv[i] = 1 / d
			// row += G - t_v H + H/d
			w := -t + inv[i]
			row := dB.Data[off : off+k : off+k]
			for j, x := range row {
				row[j] = (x + g[j]) + w*h[j]
			}
		}
		for j, x := range a[off : off+k : off+k] {
			h[j] += x
			g[j] += t * x
		}
	}
	// Backward sweep: A-gradients.
	p, q, r := ws.p[:k], ws.q[:k], ws.r[:k]
	for j := range p {
		p[j], q[j], r[j] = 0, 0, 0
	}
	for i := n - 1; i >= 0; i-- {
		inf := c.Infections[i]
		off := inf.Node * k
		t := inf.Time
		// row += t_u P - Q + R over successors (positions > i).
		row := dA.Data[off : off+k : off+k]
		for j, x := range row {
			row[j] = ((x + t*p[j]) - q[j]) + r[j]
		}
		if i > 0 {
			w := inv[i]
			for j, x := range b[off : off+k : off+k] {
				p[j] += x
				q[j] += t * x
				r[j] += w * x
			}
		}
	}
}

// RecoveryError reports how close the model's pairwise rates are to a
// reference model's, averaged over the provided node pairs. Embeddings
// are identifiable only up to rescaling/rotation of the latent space, so
// comparing rates (inner products) is the meaningful recovery metric.
func (m *Model) RecoveryError(ref *Model, pairs [][2]int) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var s float64
	for _, p := range pairs {
		d := m.Rate(p[0], p[1]) - ref.Rate(p[0], p[1])
		s += d * d
	}
	return math.Sqrt(s / float64(len(pairs)))
}
