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

// logLik is LogLik on caller-owned scratch: h and g have length K and
// are zeroed here.
func (m *Model) logLik(c *cascade.Cascade, h, g []float64) float64 {
	vecmath.Fill(h, 0) // H = sum of A[l] over already-infected l
	vecmath.Fill(g, 0) // G = sum of t_l * A[l]
	var ll float64
	for i, inf := range c.Infections {
		if i > 0 {
			bv := m.B.Row(inf.Node)
			hb := vecmath.Dot(h, bv)
			gb := vecmath.Dot(g, bv)
			// sum_{l<v} (t_l - t_v) A[l]·B[v] = G·B[v] - t_v * H·B[v]
			ll += gb - inf.Time*hb
			if hb < EpsRate {
				hb = EpsRate
			}
			ll += math.Log(hb)
		}
		al := m.A.Row(inf.Node)
		vecmath.Add(al, h)
		vecmath.Axpy(inf.Time, al, g)
	}
	return ll
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
	h, g, p, q, r, tmp []float64
	denom              []float64
}

// NewGradWorkspace allocates a workspace for models with k topics.
func NewGradWorkspace(k int) *GradWorkspace {
	return &GradWorkspace{
		h:   make([]float64, k),
		g:   make([]float64, k),
		p:   make([]float64, k),
		q:   make([]float64, k),
		r:   make([]float64, k),
		tmp: make([]float64, k),
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
// Complexity O(len(c) * K); no allocation beyond the reusable workspace.
func (m *Model) AccumGrad(c *cascade.Cascade, dA, dB *vecmath.Matrix, ws *GradWorkspace) {
	n := len(c.Infections)
	if n < 2 {
		return
	}
	vecmath.Fill(ws.h, 0)
	vecmath.Fill(ws.g, 0)
	if cap(ws.denom) < n {
		ws.denom = make([]float64, n)
	}
	denom := ws.denom[:n]
	// Forward sweep: B-gradients and denominators.
	for i, inf := range c.Infections {
		if i > 0 {
			bv := m.B.Row(inf.Node)
			d := vecmath.Dot(ws.h, bv)
			if d < EpsRate {
				d = EpsRate
			}
			denom[i] = d
			row := dB.Row(inf.Node)
			// row += G - t_v H + H/d
			vecmath.Add(ws.g, row)
			vecmath.Axpy(-inf.Time+1/d, ws.h, row) // (-t_v + 1/d) * H
		}
		al := m.A.Row(inf.Node)
		vecmath.Add(al, ws.h)
		vecmath.Axpy(inf.Time, al, ws.g)
	}
	// Backward sweep: A-gradients.
	vecmath.Fill(ws.p, 0)
	vecmath.Fill(ws.q, 0)
	vecmath.Fill(ws.r, 0)
	for i := n - 1; i >= 0; i-- {
		inf := c.Infections[i]
		row := dA.Row(inf.Node)
		// row += t_u P - Q + R over successors (positions > i).
		vecmath.Axpy(inf.Time, ws.p, row)
		vecmath.Axpy(-1, ws.q, row)
		vecmath.Add(ws.r, row)
		if i > 0 {
			bv := m.B.Row(inf.Node)
			vecmath.Add(bv, ws.p)
			vecmath.Axpy(inf.Time, bv, ws.q)
			vecmath.Axpy(1/denom[i], bv, ws.r)
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
