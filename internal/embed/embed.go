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
// a standard non-negative warm start for EM and gradient ascent alike.
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
	hb, gb := m.partials(len(c.Infections))
	return m.logLik(c, hb, gb)
}

// LogLikAll sums LogLik over all cascades, on one pair of per-infection
// scratch vectors sized to the longest (none at K = 4).
func (m *Model) LogLikAll(cs []*cascade.Cascade) float64 {
	longest := 0
	for _, c := range cs {
		longest = max(longest, len(c.Infections))
	}
	hb, gb := m.partials(longest)
	var s float64
	for _, c := range cs {
		s += m.logLik(c, hb, gb)
	}
	return s
}

// The kernels sweep the topics in blocks of four whose running sums H, G
// (and P, Q, R) live in registers for a whole pass over the cascade. The
// K mod 4 leading columns are swept alone, one pass each, then the full
// blocks in order; every pass but the one over the last block adds its
// share of each infection's dot products to a per-infection scratch, and
// the last pass finishes the infection inline (below one block, a loop
// over the scratch does). Each dot is therefore still summed over
// j = 0 … K−1 from zero, and every result is the column-at-a-time loop's
// to the bit. At K = 4 a kernel is one pass with no scratch.
const block = 4

// partials returns logLik's per-infection scratch for cascades of up to
// n infections, nil when every column is in the finishing block.
func (m *Model) partials(n int) (hb, gb []float64) {
	if m.K() == block {
		return nil, nil
	}
	return make([]float64, n), make([]float64, n)
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

// logLik is LogLik on caller-owned scratch: unless K is one block, hb and
// gb hold at least len(c.Infections) entries, and are zeroed here. The
// result is within 1e-12·(1+|ll|) of the term-by-term sum of Eq. 8 (a
// few ulp in practice); a NaN or ±Inf hazard still yields a non-finite
// likelihood, which the divergence guard in package infer relies on.
func (m *Model) logLik(c *cascade.Cascade, hb, gb []float64) float64 {
	k := m.A.ColsN
	if m.B.ColsN != k {
		panic("embed: LogLik on a model whose A and B widths differ")
	}
	infs := c.Infections
	if len(infs) < 2 {
		return 0
	}
	a, b := m.A.Data, m.B.Data
	lead, last := k%block, k-block
	if k != block {
		hb, gb = hb[:len(infs)], gb[:len(infs)]
		clear(hb)
		clear(gb)
	}
	for j := 0; j < lead; j++ {
		dotColumn(infs, a, b, k, j, hb, gb)
	}
	for j := lead; j < last; j += block {
		dotBlock(infs, a, b, k, j, hb, gb)
	}
	if last < 0 { // no block: the column passes left whole dots
		return finishColumns(infs, hb, gb)
	}
	return finishBlock(infs, a, b, k, last, hb, gb)
}

// finishColumns folds whole dots hb = H(v)·B[v] and gb = G(v)·B[v] into
// the likelihood, for widths below one block.
func finishColumns(infs []cascade.Infection, hb, gb []float64) float64 {
	var linear float64
	prod, exp := 1.0, 0
	for i := 1; i < len(infs); i++ {
		// sum_{l<v} (t_l - t_v) A[l]·B[v] = G·B[v] - t_v * H·B[v]
		linear += gb[i] - infs[i].Time*hb[i]
		if p := prod * hb[i]; plain(hb[i]) && inBand(p) {
			prod = p
		} else {
			prod, exp = mulHazard(prod, exp, hb[i])
		}
	}
	return linear + (math.Log(prod) + float64(exp)*math.Ln2)
}

// dotColumn adds column j's terms of H(v)·B[v] and G(v)·B[v] to hb and gb.
func dotColumn(infs []cascade.Infection, a, b []float64, k, j int, hb, gb []float64) {
	var h, g float64 // H and G = sums of A[l] and t_l·A[l] over infected l
	for i, inf := range infs {
		off := inf.Node*k + j
		if i > 0 {
			x := b[off]
			hb[i] += h * x
			gb[i] += g * x
		}
		y := a[off]
		h += y
		g += inf.Time * y
	}
}

// dotBlock adds the terms of columns j … j+3 to hb and gb.
func dotBlock(infs []cascade.Infection, a, b []float64, k, j int, hb, gb []float64) {
	a, b = a[:len(a):len(a)], b[:len(a):len(a)] // one check serves both rows
	hb, gb = hb[:len(infs)], gb[:len(infs)]
	var h0, h1, h2, h3, g0, g1, g2, g3 float64
	for i, inf := range infs {
		off := inf.Node*k + j
		y, t := a[off:off+block:off+block], inf.Time
		if i > 0 {
			x := b[off : off+block : off+block]
			s, u := hb[i], gb[i]
			s += h0 * x[0]
			u += g0 * x[0]
			s += h1 * x[1]
			u += g1 * x[1]
			s += h2 * x[2]
			u += g2 * x[2]
			s += h3 * x[3]
			u += g3 * x[3]
			hb[i], gb[i] = s, u
		}
		h0 += y[0]
		h1 += y[1]
		h2 += y[2]
		h3 += y[3]
		g0 += t * y[0]
		g1 += t * y[1]
		g2 += t * y[2]
		g3 += t * y[3]
	}
}

// finishBlock is the pass over the last block, columns j … j+3: it adds
// their terms to the partial dots of the columns before (if K is wider
// than a block) and folds each infection's survival term and hazard into
// the likelihood.
func finishBlock(infs []cascade.Infection, a, b []float64, k, j int, hb, gb []float64) float64 {
	carry := k > block                          // the passes before left partial dots in hb, gb
	a, b = a[:len(a):len(a)], b[:len(a):len(a)] // one check serves both rows
	var h0, h1, h2, h3, g0, g1, g2, g3 float64
	var linear float64 // sum of the survival terms
	prod, exp := 1.0, 0
	for i, inf := range infs {
		off := inf.Node*k + j
		y, t := a[off:off+block:off+block], inf.Time
		if i > 0 {
			x := b[off : off+block : off+block]
			var s, u float64
			if carry {
				s, u = hb[i], gb[i]
			}
			s += h0 * x[0]
			u += g0 * x[0]
			s += h1 * x[1]
			u += g1 * x[1]
			s += h2 * x[2]
			u += g2 * x[2]
			s += h3 * x[3]
			u += g3 * x[3]
			linear += u - t*s
			if p := prod * s; plain(s) && inBand(p) {
				prod = p
			} else {
				prod, exp = mulHazard(prod, exp, s)
			}
		}
		h0 += y[0]
		h1 += y[1]
		h2 += y[2]
		h3 += y[3]
		g0 += t * y[0]
		g1 += t * y[1]
		g2 += t * y[2]
		g3 += t * y[3]
	}
	return linear + (math.Log(prod) + float64(exp)*math.Ln2)
}

// plain reports whether a hazard needs neither the EpsRate floor nor a
// reduction before it is multiplied in: 2^-39 (above EpsRate) ≤ hb <
// 2^500. A NaN, an infinity or a negative value is not plain. Read from
// the exponent bits, it is one integer comparison.
func plain(hb float64) bool {
	return math.Float64bits(hb)>>52-(1023-39) < 39+500
}

// inBand reports whether a product lies in [2^-500, 2^500), inside the
// band, by its exponent bits.
func inBand(p float64) bool {
	return math.Float64bits(p)>>52-(1023-500) < 500+500
}

// mulHazard multiplies one infection's hazard hb, floored at EpsRate, into
// the product prod·2^exp. The kernels call it only when hb is not plain or
// the plain product leaves the band; for every other hazard it would
// return that product unchanged, so the shortcut changes no bit. Negated
// comparisons so a NaN takes the Frexp path too; Frexp returns NaN and
// ±Inf unchanged, keeping the product non-finite. The floor is an if, not
// max: Go's max returns a NaN of its own, not the operand.
func mulHazard(prod float64, exp int, hb float64) (float64, int) {
	if hb < EpsRate {
		hb = EpsRate
	}
	if !(hb <= hazardHi) {
		fr, e := math.Frexp(hb)
		hb, exp = fr, exp+e
	}
	prod *= hb
	if !(prod >= hazardLo && prod <= hazardHi) {
		fr, e := math.Frexp(prod)
		prod, exp = fr, exp+e
	}
	return prod, exp
}

// GradWorkspace holds the scratch buffers AccumGrad and EMAccum need, so
// the hot training loop performs no per-cascade allocation. A workspace
// may be reused across cascades but not shared between goroutines.
type GradWorkspace struct {
	inv []float64 // partial d_v, then 1/d_v, per cascade position
	gb  []float64 // EMAccum's partial G(v)·B[v] when K is wider than a block
}

// NewGradWorkspace returns a workspace for models with k topics. Its
// scratch grows to the longest cascade it meets, whatever k is.
func NewGradWorkspace(k int) *GradWorkspace {
	return &GradWorkspace{}
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
// Both sweeps run per block of columns, as in logLik: the forward passes
// before the last block's add their partial d_v to the workspace, the
// last one finishes 1/d_v and its own dB columns, and a second forward
// pass per earlier block then updates theirs. Complexity O(len(c) * K);
// no allocation beyond the reusable workspace.
func (m *Model) AccumGrad(c *cascade.Cascade, dA, dB *vecmath.Matrix, ws *GradWorkspace) {
	infs := c.Infections
	n := len(infs)
	if n < 2 {
		return
	}
	k := m.A.ColsN
	if m.B.ColsN != k || dA.ColsN != k || dB.ColsN != k {
		panic("embed: AccumGrad on matrices of differing widths")
	}
	a, b := m.A.Data, m.B.Data
	if cap(ws.inv) < n {
		ws.inv = make([]float64, n)
	}
	inv := ws.inv[:n]
	lead, last := k%block, k-block
	if k != block {
		clear(inv)
	}
	for j := 0; j < lead; j++ {
		denomColumn(infs, a, b, k, j, inv)
	}
	for j := lead; j < last; j += block {
		denomBlock(infs, a, b, k, j, inv)
	}
	if last < 0 {
		invert(inv)
	} else {
		finishGradBBlock(infs, a, b, dB.Data, k, last, inv)
	}
	for j := 0; j < lead; j++ {
		gradBColumn(infs, a, dB.Data, k, j, inv)
	}
	for j := lead; j < last; j += block {
		gradBBlock(infs, a, dB.Data, k, j, inv)
	}
	for j := 0; j < lead; j++ {
		gradAColumn(infs, b, dA.Data, k, j, inv)
	}
	for j := lead; j < k; j += block {
		gradABlock(infs, b, dA.Data, k, j, inv)
	}
}

// invert replaces every d_v but the seed's by 1/d_v, d_v floored at
// EpsRate.
func invert(d []float64) {
	for i := 1; i < len(d); i++ {
		v := d[i]
		if v < EpsRate {
			v = EpsRate
		}
		d[i] = 1 / v
	}
}

// denomColumn adds column j's terms of d_v = H(v)·B[v] to d.
func denomColumn(infs []cascade.Infection, a, b []float64, k, j int, d []float64) {
	var h float64
	for i, inf := range infs {
		off := inf.Node*k + j
		if i > 0 {
			d[i] += h * b[off]
		}
		h += a[off]
	}
}

// denomBlock adds the terms of columns j … j+3 to d.
func denomBlock(infs []cascade.Infection, a, b []float64, k, j int, d []float64) {
	a, b = a[:len(a):len(a)], b[:len(a):len(a)] // one check serves both rows
	var h0, h1, h2, h3 float64
	for i, inf := range infs {
		off := inf.Node*k + j
		y := a[off : off+block : off+block]
		if i > 0 {
			x := b[off : off+block : off+block]
			s := d[i]
			s += h0 * x[0]
			s += h1 * x[1]
			s += h2 * x[2]
			s += h3 * x[3]
			d[i] = s
		}
		h0 += y[0]
		h1 += y[1]
		h2 += y[2]
		h3 += y[3]
	}
}

// finishGradBBlock is the forward pass over the last block, columns
// j … j+3: it completes each d_v from the partial sums in inv (if K is
// wider than a block), replaces it by 1/d_v, and adds the block's share
// of the B-gradient, row += G - t_v H + H/d_v.
func finishGradBBlock(infs []cascade.Infection, a, b, dB []float64, k, j int, inv []float64) {
	a, b = a[:len(a):len(a)], b[:len(a):len(a)] // one check serves both rows
	carry := k > block                          // the passes before left partial d_v in inv
	var h0, h1, h2, h3, g0, g1, g2, g3 float64
	for i, inf := range infs {
		off := inf.Node*k + j
		y, t := a[off:off+block:off+block], inf.Time
		if i > 0 {
			x := b[off : off+block : off+block]
			var d float64
			if carry {
				d = inv[i]
			}
			d += h0 * x[0]
			d += h1 * x[1]
			d += h2 * x[2]
			d += h3 * x[3]
			if d < EpsRate {
				d = EpsRate
			}
			iv := 1 / d
			inv[i] = iv
			w := -t + iv
			row := dB[off : off+block : off+block]
			row[0] = (row[0] + g0) + w*h0
			row[1] = (row[1] + g1) + w*h1
			row[2] = (row[2] + g2) + w*h2
			row[3] = (row[3] + g3) + w*h3
		}
		h0 += y[0]
		h1 += y[1]
		h2 += y[2]
		h3 += y[3]
		g0 += t * y[0]
		g1 += t * y[1]
		g2 += t * y[2]
		g3 += t * y[3]
	}
}

// gradBColumn adds column j's share of the B-gradient once inv holds 1/d_v.
func gradBColumn(infs []cascade.Infection, a, dB []float64, k, j int, inv []float64) {
	var h, g float64
	for i, inf := range infs {
		off := inf.Node*k + j
		t := inf.Time
		if i > 0 {
			w := -t + inv[i]
			dB[off] = (dB[off] + g) + w*h
		}
		y := a[off]
		h += y
		g += t * y
	}
}

// gradBBlock adds the share of columns j … j+3 once inv holds 1/d_v.
func gradBBlock(infs []cascade.Infection, a, dB []float64, k, j int, inv []float64) {
	var h0, h1, h2, h3, g0, g1, g2, g3 float64
	for i, inf := range infs {
		off := inf.Node*k + j
		t := inf.Time
		if i > 0 {
			w := -t + inv[i]
			row := dB[off : off+block : off+block]
			row[0] = (row[0] + g0) + w*h0
			row[1] = (row[1] + g1) + w*h1
			row[2] = (row[2] + g2) + w*h2
			row[3] = (row[3] + g3) + w*h3
		}
		y := a[off : off+block : off+block]
		h0 += y[0]
		h1 += y[1]
		h2 += y[2]
		h3 += y[3]
		g0 += t * y[0]
		g1 += t * y[1]
		g2 += t * y[2]
		g3 += t * y[3]
	}
}

// gradAColumn is the backward sweep over column j: row += t_u P - Q + R
// over the successors of u (positions > i).
func gradAColumn(infs []cascade.Infection, b, dA []float64, k, j int, inv []float64) {
	var p, q, r float64
	for i := len(infs) - 1; i >= 0; i-- {
		off := infs[i].Node*k + j
		t := infs[i].Time
		dA[off] = ((dA[off] + t*p) - q) + r
		if i > 0 {
			x := b[off]
			p += x
			q += t * x
			r += inv[i] * x
		}
	}
}

// gradABlock is the backward sweep over columns j … j+3.
func gradABlock(infs []cascade.Infection, b, dA []float64, k, j int, inv []float64) {
	var p0, p1, p2, p3, q0, q1, q2, q3, r0, r1, r2, r3 float64
	for i := len(infs) - 1; i >= 0; i-- {
		off := infs[i].Node*k + j
		t := infs[i].Time
		row := dA[off : off+block : off+block]
		row[0] = ((row[0] + t*p0) - q0) + r0
		row[1] = ((row[1] + t*p1) - q1) + r1
		row[2] = ((row[2] + t*p2) - q2) + r2
		row[3] = ((row[3] + t*p3) - q3) + r3
		if i > 0 {
			w := inv[i]
			x := b[off : off+block : off+block]
			p0 += x[0]
			p1 += x[1]
			p2 += x[2]
			p3 += x[3]
			q0 += t * x[0]
			q1 += t * x[1]
			q2 += t * x[2]
			q3 += t * x[3]
			r0 += w * x[0]
			r1 += w * x[1]
			r2 += w * x[2]
			r3 += w * x[3]
		}
	}
}

// EMAccum is the E-step of one cascade for the closed-form (ECM) fit.
// Under the current model, each infection v after the seed was caused by
// one earlier adopter u through one topic k with probability
// A[u,k]·B[v,k]/s_v, where s_v = H(v)·B[v] (floored at EpsRate). EMAccum
// adds those expected counts, and the exposures they are divided by, to
// the epoch's sufficient statistics, and returns the cascade's
// log-likelihood: LogLik(c), to the bit.
//
// A forward sweep adds numB[v] += B[v] ∘ H(v) / s_v; a backward sweep adds
//
//	numA[u] += A[u] ∘ R(u),   R(u) = sum B[v]/s_v
//	denA[u] += D(u),          D(u) = sum (t_v - t_u) B[v]
//
// over the successors v of u. These are the x·g⁺ and g⁻ parts of Eqs. 14
// and 16: for fixed B, numA/denA maximizes the expected complete-data
// likelihood in A. D(u) equals Q(u) - t_u·P(u), but it is carried as
// D += (t_next - t_u)·P, a sum of non-negative terms that is exactly 0
// when every successor ties with u, where the difference could round to
// either sign. The sweeps run per block of columns as in AccumGrad.
// Complexity O(len(c) * K); no allocation beyond the reusable workspace.
func (m *Model) EMAccum(c *cascade.Cascade, numA, denA, numB *vecmath.Matrix, ws *GradWorkspace) float64 {
	infs := c.Infections
	n := len(infs)
	if n < 2 {
		return 0
	}
	k := m.A.ColsN
	if m.B.ColsN != k || numA.ColsN != k || denA.ColsN != k || numB.ColsN != k {
		panic("embed: EMAccum on matrices of differing widths")
	}
	a, b := m.A.Data, m.B.Data
	if cap(ws.inv) < n {
		ws.inv = make([]float64, n)
	}
	inv := ws.inv[:n]
	lead, last := k%block, k-block
	var gb []float64
	if k != block {
		if cap(ws.gb) < n {
			ws.gb = make([]float64, n)
		}
		gb = ws.gb[:n]
		clear(inv)
		clear(gb)
	}
	for j := 0; j < lead; j++ {
		dotColumn(infs, a, b, k, j, inv, gb)
	}
	for j := lead; j < last; j += block {
		dotBlock(infs, a, b, k, j, inv, gb)
	}
	var ll float64
	if last < 0 {
		ll = finishColumns(infs, inv, gb)
		invert(inv)
	} else {
		ll = finishEMBlock(infs, a, b, numB.Data, k, last, inv, gb)
	}
	for j := 0; j < lead; j++ {
		numBColumn(infs, a, b, numB.Data, k, j, inv)
	}
	for j := lead; j < last; j += block {
		numBBlock(infs, a, b, numB.Data, k, j, inv)
	}
	for j := 0; j < lead; j++ {
		numAColumn(infs, a, b, numA.Data, denA.Data, k, j, inv)
	}
	for j := lead; j < k; j += block {
		numABlock(infs, a, b, numA.Data, denA.Data, k, j, inv)
	}
	return ll
}

// finishEMBlock is finishBlock that also completes each s_v, stores
// 1/s_v (s_v floored at EpsRate) in inv, and adds the block's share of
// numB, row += B[v] ∘ H(v) / s_v.
func finishEMBlock(infs []cascade.Infection, a, b, numB []float64, k, j int, inv, gb []float64) float64 {
	carry := k > block                          // the passes before left partial dots in inv, gb
	a, b = a[:len(a):len(a)], b[:len(a):len(a)] // one check serves both rows
	var h0, h1, h2, h3, g0, g1, g2, g3 float64
	var linear float64 // sum of the survival terms
	prod, exp := 1.0, 0
	for i, inf := range infs {
		off := inf.Node*k + j
		y, t := a[off:off+block:off+block], inf.Time
		if i > 0 {
			x := b[off : off+block : off+block]
			var s, u float64
			if carry {
				s, u = inv[i], gb[i]
			}
			s += h0 * x[0]
			u += g0 * x[0]
			s += h1 * x[1]
			u += g1 * x[1]
			s += h2 * x[2]
			u += g2 * x[2]
			s += h3 * x[3]
			u += g3 * x[3]
			linear += u - t*s
			if p := prod * s; plain(s) && inBand(p) {
				prod = p
			} else {
				prod, exp = mulHazard(prod, exp, s)
			}
			if s < EpsRate {
				s = EpsRate
			}
			iv := 1 / s
			inv[i] = iv
			row := numB[off : off+block : off+block]
			row[0] += h0 * x[0] * iv
			row[1] += h1 * x[1] * iv
			row[2] += h2 * x[2] * iv
			row[3] += h3 * x[3] * iv
		}
		h0 += y[0]
		h1 += y[1]
		h2 += y[2]
		h3 += y[3]
		g0 += t * y[0]
		g1 += t * y[1]
		g2 += t * y[2]
		g3 += t * y[3]
	}
	return linear + (math.Log(prod) + float64(exp)*math.Ln2)
}

// numBColumn adds column j's share of numB once inv holds 1/s_v.
func numBColumn(infs []cascade.Infection, a, b, numB []float64, k, j int, inv []float64) {
	var h float64
	for i, inf := range infs {
		off := inf.Node*k + j
		if i > 0 {
			numB[off] += h * b[off] * inv[i]
		}
		h += a[off]
	}
}

// numBBlock adds the share of columns j … j+3 once inv holds 1/s_v.
func numBBlock(infs []cascade.Infection, a, b, numB []float64, k, j int, inv []float64) {
	a, b = a[:len(a):len(a)], b[:len(a):len(a)] // one check serves both rows
	var h0, h1, h2, h3 float64
	for i, inf := range infs {
		off := inf.Node*k + j
		if i > 0 {
			x := b[off : off+block : off+block]
			iv := inv[i]
			row := numB[off : off+block : off+block]
			row[0] += h0 * x[0] * iv
			row[1] += h1 * x[1] * iv
			row[2] += h2 * x[2] * iv
			row[3] += h3 * x[3] * iv
		}
		y := a[off : off+block : off+block]
		h0 += y[0]
		h1 += y[1]
		h2 += y[2]
		h3 += y[3]
	}
}

// numAColumn is the backward sweep over column j: numA += A[u]·R and
// denA += D over the successors of u (positions > i).
func numAColumn(infs []cascade.Infection, a, b, numA, denA []float64, k, j int, inv []float64) {
	var p, d, r float64
	next := infs[len(infs)-1].Time
	for i := len(infs) - 1; i >= 0; i-- {
		off := infs[i].Node*k + j
		t := infs[i].Time
		d += (next - t) * p
		numA[off] += a[off] * r
		denA[off] += d
		if i > 0 {
			x := b[off]
			p += x
			r += inv[i] * x
		}
		next = t
	}
}

// numABlock is the backward sweep over columns j … j+3.
func numABlock(infs []cascade.Infection, a, b, numA, denA []float64, k, j int, inv []float64) {
	a, b = a[:len(a):len(a)], b[:len(a):len(a)] // one check serves both rows
	var p0, p1, p2, p3, d0, d1, d2, d3, r0, r1, r2, r3 float64
	next := infs[len(infs)-1].Time
	for i := len(infs) - 1; i >= 0; i-- {
		off := infs[i].Node*k + j
		t := infs[i].Time
		dt := next - t
		d0 += dt * p0
		d1 += dt * p1
		d2 += dt * p2
		d3 += dt * p3
		y := a[off : off+block : off+block]
		num := numA[off : off+block : off+block]
		num[0] += y[0] * r0
		num[1] += y[1] * r1
		num[2] += y[2] * r2
		num[3] += y[3] * r3
		den := denA[off : off+block : off+block]
		den[0] += d0
		den[1] += d1
		den[2] += d2
		den[3] += d3
		if i > 0 {
			w := inv[i]
			x := b[off : off+block : off+block]
			p0 += x[0]
			p1 += x[1]
			p2 += x[2]
			p3 += x[3]
			r0 += w * x[0]
			r1 += w * x[1]
			r2 += w * x[2]
			r3 += w * x[3]
		}
		next = t
	}
}

// EMDenB adds one cascade's B-exposures under the model's A — in the ECM
// fit, the A the epoch has just solved for:
//
//	denB[v] += sum (t_v - t_l) A[l] = t_v·H(v) - G(v)
//
// over the predecessors l of v, carried as E += (t_v - t_prev)·H, a sum
// of non-negative terms, for the reason EMAccum carries D. One forward
// sweep per block of columns; it reads no B and needs no scratch.
func (m *Model) EMDenB(c *cascade.Cascade, denB *vecmath.Matrix) {
	infs := c.Infections
	if len(infs) < 2 {
		return
	}
	k := m.A.ColsN
	if denB.ColsN != k {
		panic("embed: EMDenB on matrices of differing widths")
	}
	a := m.A.Data
	lead := k % block
	for j := 0; j < lead; j++ {
		denBColumn(infs, a, denB.Data, k, j)
	}
	for j := lead; j < k; j += block {
		denBBlock(infs, a, denB.Data, k, j)
	}
}

// denBColumn is EMDenB's sweep over column j.
func denBColumn(infs []cascade.Infection, a, denB []float64, k, j int) {
	var h, e float64
	prev := infs[0].Time
	for i, inf := range infs {
		off := inf.Node*k + j
		t := inf.Time
		e += (t - prev) * h
		if i > 0 {
			denB[off] += e
		}
		h += a[off]
		prev = t
	}
}

// denBBlock is EMDenB's sweep over columns j … j+3.
func denBBlock(infs []cascade.Infection, a, denB []float64, k, j int) {
	a = a[:len(a):len(a)]
	var h0, h1, h2, h3, e0, e1, e2, e3 float64
	prev := infs[0].Time
	for i, inf := range infs {
		off := inf.Node*k + j
		t := inf.Time
		dt := t - prev
		e0 += dt * h0
		e1 += dt * h1
		e2 += dt * h2
		e3 += dt * h3
		if i > 0 {
			row := denB[off : off+block : off+block]
			row[0] += e0
			row[1] += e1
			row[2] += e2
			row[3] += e3
		}
		y := a[off : off+block : off+block]
		h0 += y[0]
		h1 += y[1]
		h2 += y[2]
		h3 += y[3]
		prev = t
	}
}
