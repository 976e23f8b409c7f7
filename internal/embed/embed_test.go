package embed

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"viralcast/internal/cascade"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

func randModel(n, k int, seed uint64) *Model {
	m := NewModel(n, k)
	m.InitUniform(xrand.New(seed), 0.2, 1.0)
	return m
}

func randCascade(id, n, size int, rng *xrand.RNG) *cascade.Cascade {
	perm := rng.Perm(n)
	c := &cascade.Cascade{ID: id}
	tm := 0.0
	for i := 0; i < size && i < n; i++ {
		tm += 0.1 + rng.Float64()
		c.Infections = append(c.Infections, cascade.Infection{Node: perm[i], Time: tm})
	}
	return c
}

func TestNewModelPanics(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModel(%v) did not panic", dims)
				}
			}()
			NewModel(dims[0], dims[1])
		}()
	}
}

func TestInitUniformRange(t *testing.T) {
	m := NewModel(10, 3)
	m.InitUniform(xrand.New(1), 0.5, 2.0)
	for _, v := range append(append([]float64(nil), m.A.Data...), m.B.Data...) {
		if v < 0.5 || v >= 2.0 {
			t.Fatalf("InitUniform out of range: %v", v)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsBadModels(t *testing.T) {
	m := randModel(4, 2, 1)
	m.A.Set(0, 0, -1)
	if err := m.Validate(); err == nil {
		t.Error("negative entry accepted")
	}
	m = randModel(4, 2, 1)
	m.B.Set(0, 0, math.NaN())
	if err := m.Validate(); err == nil {
		t.Error("NaN entry accepted")
	}
	m = randModel(4, 2, 1)
	m.B = vecmath.NewMatrix(4, 3)
	if err := m.Validate(); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestRate(t *testing.T) {
	m := NewModel(2, 2)
	m.A.Set(0, 0, 2)
	m.A.Set(0, 1, 3)
	m.B.Set(1, 0, 5)
	m.B.Set(1, 1, 7)
	if got := m.Rate(0, 1); got != 2*5+3*7 {
		t.Fatalf("Rate = %v", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := randModel(3, 2, 2)
	c := m.Clone()
	c.A.Set(0, 0, 99)
	if m.A.At(0, 0) == 99 {
		t.Fatal("Clone aliases storage")
	}
}

// Brute-force likelihood straight from Eq. 8 for cross-checking the
// linear-time implementation.
func bruteLogLik(m *Model, c *cascade.Cascade) float64 {
	var ll float64
	for i, v := range c.Infections {
		if i == 0 {
			continue
		}
		var sumRate, sumSurv float64
		for j := 0; j < i; j++ {
			l := c.Infections[j]
			r := m.Rate(l.Node, v.Node)
			sumSurv += (l.Time - v.Time) * r
			sumRate += r
		}
		if sumRate < EpsRate {
			sumRate = EpsRate
		}
		ll += sumSurv + math.Log(sumRate)
	}
	return ll
}

func TestLogLikMatchesBruteForce(t *testing.T) {
	rng := xrand.New(3)
	m := randModel(20, 4, 4)
	for trial := 0; trial < 50; trial++ {
		c := randCascade(trial, 20, 2+rng.Intn(15), rng)
		fast := m.LogLik(c)
		slow := bruteLogLik(m, c)
		if math.Abs(fast-slow) > 1e-9*(1+math.Abs(slow)) {
			t.Fatalf("trial %d: fast %v != brute %v", trial, fast, slow)
		}
	}
}

func TestLogLikTrivialCascades(t *testing.T) {
	m := randModel(5, 2, 5)
	if m.LogLik(&cascade.Cascade{}) != 0 {
		t.Error("empty cascade loglik != 0")
	}
	single := &cascade.Cascade{Infections: []cascade.Infection{{Node: 2, Time: 0}}}
	if m.LogLik(single) != 0 {
		t.Error("singleton cascade loglik != 0")
	}
}

func TestLogLikAll(t *testing.T) {
	m := randModel(10, 2, 6)
	rng := xrand.New(7)
	cs := []*cascade.Cascade{randCascade(0, 10, 4, rng), randCascade(1, 10, 6, rng)}
	want := m.LogLik(cs[0]) + m.LogLik(cs[1])
	if got := m.LogLikAll(cs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogLikAll = %v, want %v", got, want)
	}
}

// The decisive test: analytic gradient vs central finite differences, for
// both A and B, on random models and cascades.
func TestGradientMatchesFiniteDifferences(t *testing.T) {
	rng := xrand.New(8)
	const n, k = 12, 3
	for trial := 0; trial < 10; trial++ {
		m := randModel(n, k, uint64(100+trial))
		c := randCascade(trial, n, 3+rng.Intn(8), rng)
		dA := vecmath.NewMatrix(n, k)
		dB := vecmath.NewMatrix(n, k)
		ws := NewGradWorkspace(k)
		m.AccumGrad(c, dA, dB, ws)
		const eps = 1e-6
		check := func(mat *vecmath.Matrix, grad *vecmath.Matrix, name string) {
			for i := 0; i < n; i++ {
				for j := 0; j < k; j++ {
					orig := mat.At(i, j)
					mat.Set(i, j, orig+eps)
					up := m.LogLik(c)
					mat.Set(i, j, orig-eps)
					down := m.LogLik(c)
					mat.Set(i, j, orig)
					fd := (up - down) / (2 * eps)
					an := grad.At(i, j)
					if math.Abs(fd-an) > 1e-4*(1+math.Abs(fd)) {
						t.Fatalf("trial %d %s[%d,%d]: analytic %v, finite-diff %v",
							trial, name, i, j, an, fd)
					}
				}
			}
		}
		check(m.A, dA, "A")
		check(m.B, dB, "B")
	}
}

func TestAccumGradAccumulates(t *testing.T) {
	// Calling AccumGrad twice must add the gradient twice.
	m := randModel(8, 2, 9)
	c := randCascade(0, 8, 5, xrand.New(10))
	d1A, d1B := vecmath.NewMatrix(8, 2), vecmath.NewMatrix(8, 2)
	ws := NewGradWorkspace(2)
	m.AccumGrad(c, d1A, d1B, ws)
	d2A, d2B := vecmath.NewMatrix(8, 2), vecmath.NewMatrix(8, 2)
	m.AccumGrad(c, d2A, d2B, ws)
	m.AccumGrad(c, d2A, d2B, ws)
	for i := range d1A.Data {
		if math.Abs(d2A.Data[i]-2*d1A.Data[i]) > 1e-12 {
			t.Fatal("AccumGrad does not accumulate dA")
		}
		if math.Abs(d2B.Data[i]-2*d1B.Data[i]) > 1e-12 {
			t.Fatal("AccumGrad does not accumulate dB")
		}
	}
}

func TestAccumGradShortCascades(t *testing.T) {
	m := randModel(4, 2, 11)
	dA, dB := vecmath.NewMatrix(4, 2), vecmath.NewMatrix(4, 2)
	ws := NewGradWorkspace(2)
	m.AccumGrad(&cascade.Cascade{}, dA, dB, ws)
	m.AccumGrad(&cascade.Cascade{Infections: []cascade.Infection{{Node: 1, Time: 0}}}, dA, dB, ws)
	for _, v := range append(append([]float64(nil), dA.Data...), dB.Data...) {
		if v != 0 {
			t.Fatal("short cascades must contribute zero gradient")
		}
	}
}

// Property: the likelihood is invariant under relabeling node ids, because
// it depends only on the embedding rows in infection order.
func TestLogLikRelabelInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		const n, k = 10, 2
		m := randModel(n, k, seed^0xabc)
		c := randCascade(0, n, 2+rng.Intn(8), rng)
		base := m.LogLik(c)
		// Relabel: permute node ids and permute model rows accordingly.
		perm := rng.Perm(n)
		m2 := NewModel(n, k)
		for u := 0; u < n; u++ {
			copy(m2.A.Row(perm[u]), m.A.Row(u))
			copy(m2.B.Row(perm[u]), m.B.Row(u))
		}
		c2 := &cascade.Cascade{ID: c.ID}
		for _, inf := range c.Infections {
			c2.Infections = append(c2.Infections, cascade.Infection{Node: perm[inf.Node], Time: inf.Time})
		}
		rel := m2.LogLik(c2)
		return math.Abs(base-rel) <= 1e-9*(1+math.Abs(base))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: scaling all A rows by s and all B rows by 1/s leaves every
// hazard rate, and hence the likelihood, unchanged (the model's gauge
// freedom).
func TestLogLikGaugeInvariance(t *testing.T) {
	rng := xrand.New(12)
	m := randModel(8, 3, 13)
	c := randCascade(0, 8, 6, rng)
	base := m.LogLik(c)
	s := 2.5
	m2 := m.Clone()
	vecmath.Scale(s, m2.A.Data)
	vecmath.Scale(1/s, m2.B.Data)
	if got := m2.LogLik(c); math.Abs(got-base) > 1e-9*(1+math.Abs(base)) {
		t.Fatalf("gauge transform changed loglik: %v vs %v", got, base)
	}
}

func TestGradientAscentImprovesLikelihood(t *testing.T) {
	// A few small projected-gradient steps must increase the likelihood.
	rng := xrand.New(14)
	m := randModel(10, 2, 15)
	var cs []*cascade.Cascade
	for i := 0; i < 5; i++ {
		cs = append(cs, randCascade(i, 10, 6, rng))
	}
	before := m.LogLikAll(cs)
	ws := NewGradWorkspace(2)
	for step := 0; step < 20; step++ {
		dA, dB := vecmath.NewMatrix(10, 2), vecmath.NewMatrix(10, 2)
		for _, c := range cs {
			m.AccumGrad(c, dA, dB, ws)
		}
		vecmath.Axpy(1e-3, dA.Data, m.A.Data)
		vecmath.Axpy(1e-3, dB.Data, m.B.Data)
		for _, x := range [][]float64{m.A.Data, m.B.Data} {
			for i := range x {
				x[i] = max(x[i], 0)
			}
		}
	}
	after := m.LogLikAll(cs)
	if after <= before {
		t.Fatalf("gradient ascent did not improve loglik: %v -> %v", before, after)
	}
}

// refLogLik is the likelihood as one vecmath call per aggregate and one
// logarithm per infection — the formulation the fused logLik replaced,
// kept as its oracle.
func refLogLik(m *Model, c *cascade.Cascade) float64 {
	h := make([]float64, m.K()) // H = sum of A[l] over already-infected l
	g := make([]float64, m.K()) // G = sum of t_l * A[l]
	var ll float64
	for i, inf := range c.Infections {
		if i > 0 {
			bv := m.B.Row(inf.Node)
			hb := vecmath.Dot(h, bv)
			gb := vecmath.Dot(g, bv)
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

func refLogLikAll(m *Model, cs []*cascade.Cascade) float64 {
	var s float64
	for _, c := range cs {
		s += refLogLik(m, c)
	}
	return s
}

// refAccumGrad is the gradient as vecmath call chains — the oracle the
// fused AccumGrad must equal bit for bit.
func refAccumGrad(m *Model, c *cascade.Cascade, dA, dB *vecmath.Matrix) {
	n := len(c.Infections)
	if n < 2 {
		return
	}
	k := m.K()
	h, g := make([]float64, k), make([]float64, k)
	p, q, r := make([]float64, k), make([]float64, k), make([]float64, k)
	denom := make([]float64, n)
	for i, inf := range c.Infections {
		if i > 0 {
			bv := m.B.Row(inf.Node)
			d := vecmath.Dot(h, bv)
			if d < EpsRate {
				d = EpsRate
			}
			denom[i] = d
			row := dB.Row(inf.Node)
			vecmath.Add(g, row)
			vecmath.Axpy(-inf.Time+1/d, h, row)
		}
		al := m.A.Row(inf.Node)
		vecmath.Add(al, h)
		vecmath.Axpy(inf.Time, al, g)
	}
	for i := n - 1; i >= 0; i-- {
		inf := c.Infections[i]
		row := dA.Row(inf.Node)
		vecmath.Axpy(inf.Time, p, row)
		vecmath.Axpy(-1, q, row)
		vecmath.Add(r, row)
		if i > 0 {
			bv := m.B.Row(inf.Node)
			vecmath.Add(bv, p)
			vecmath.Axpy(inf.Time, bv, q)
			vecmath.Axpy(1/denom[i], bv, r)
		}
	}
}

// kernelCase draws a model and cascades that reach every branch of the
// kernels: cascade lengths from 0 up to maxLen, runs of repeated times,
// and (with zeroRows) nodes whose A and B rows are all zero so hazards
// hit the EpsRate floor.
func kernelCase(n, k, maxLen int, zeroRows bool, seed uint64) (*Model, []*cascade.Cascade) {
	rng := xrand.New(seed)
	m := randModel(n, k, seed^0x9e37)
	if zeroRows {
		for u := 0; u < n; u++ {
			if rng.Intn(3) == 0 {
				vecmath.Fill(m.A.Row(u), 0)
			}
			if rng.Intn(5) == 0 {
				vecmath.Fill(m.B.Row(u), 0)
			}
		}
	}
	lengths := []int{0, 1, 2, 3, maxLen}
	for i := 0; i < 8; i++ {
		lengths = append(lengths, rng.Intn(maxLen+1))
	}
	var cs []*cascade.Cascade
	for id, size := range lengths {
		c := randCascade(id, n, size, rng)
		for i := 1; i < len(c.Infections); i++ {
			if rng.Intn(4) == 0 { // a tie with the previous infection; order is kept
				c.Infections[i].Time = c.Infections[i-1].Time
			}
		}
		cs = append(cs, c)
	}
	return m, cs
}

// kernelKs cover every remainder modulo the kernels' block of four, with
// zero, one and several full blocks.
var kernelKs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16}

func TestAccumGradBitIdenticalToReference(t *testing.T) {
	const n = 600
	for _, k := range kernelKs {
		for _, zeroRows := range []bool{false, true} {
			m, cs := kernelCase(n, k, 600, zeroRows, uint64(1000+k))
			dA, dB := vecmath.NewMatrix(n, k), vecmath.NewMatrix(n, k)
			wantA, wantB := vecmath.NewMatrix(n, k), vecmath.NewMatrix(n, k)
			ws := NewGradWorkspace(k)
			for _, c := range cs {
				m.AccumGrad(c, dA, dB, ws)
				refAccumGrad(m, c, wantA, wantB)
			}
			for i := range wantA.Data {
				if math.Float64bits(dA.Data[i]) != math.Float64bits(wantA.Data[i]) {
					t.Fatalf("K=%d zeroRows=%v: dA[%d] = %v, reference %v", k, zeroRows, i, dA.Data[i], wantA.Data[i])
				}
				if math.Float64bits(dB.Data[i]) != math.Float64bits(wantB.Data[i]) {
					t.Fatalf("K=%d zeroRows=%v: dB[%d] = %v, reference %v", k, zeroRows, i, dB.Data[i], wantB.Data[i])
				}
			}
		}
	}
}

func TestLogLikAllMatchesReference(t *testing.T) {
	const n = 600
	for _, k := range kernelKs {
		for _, zeroRows := range []bool{false, true} {
			m, cs := kernelCase(n, k, 600, zeroRows, uint64(2000+k))
			got, want := m.LogLikAll(cs), refLogLikAll(m, cs)
			if !(math.Abs(got-want) <= 1e-12*(1+math.Abs(want))) {
				t.Errorf("K=%d zeroRows=%v: LogLikAll = %v, reference %v (diff %g)", k, zeroRows, got, want, got-want)
			}
			for _, c := range cs {
				got, want := m.LogLik(c), refLogLik(m, c)
				if !(math.Abs(got-want) <= 1e-12*(1+math.Abs(want))) {
					t.Errorf("K=%d zeroRows=%v cascade %d (len %d): LogLik = %v, reference %v", k, zeroRows, c.ID, c.Size(), got, want)
				}
			}
		}
	}
}

// columnLogLik is logLik as it stood before the kernels swept topics in
// blocks: H and G in memory, every dot taken column by column from zero
// at each infection. The blocked kernels must equal it bit for bit.
func columnLogLik(m *Model, c *cascade.Cascade) float64 {
	k := m.A.ColsN
	a, b := m.A.Data, m.B.Data
	h, g := make([]float64, k), make([]float64, k)
	var linear float64
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
			linear += gb - inf.Time*hb
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
		}
		t := inf.Time
		for j, x := range a[off : off+k : off+k] {
			h[j] += x
			g[j] += t * x
		}
	}
	return linear + (math.Log(prod) + float64(exp)*math.Ln2)
}

// logLikCases returns, for one width, models and cascades that reach
// every branch of logLik: random rows with ties and zero rows, hazards
// all floored (the product far below the smallest float64), hazards near
// 1e300, and rows of NaN and ±Inf.
func logLikCases(k int) map[string]func() (*Model, []*cascade.Cascade) {
	cases := map[string]func() (*Model, []*cascade.Cascade){
		"random": func() (*Model, []*cascade.Cascade) { return kernelCase(300, k, 300, false, uint64(3000+k)) },
		"zero rows": func() (*Model, []*cascade.Cascade) {
			return kernelCase(300, k, 300, true, uint64(4000+k))
		},
		"floored": func() (*Model, []*cascade.Cascade) {
			m := NewModel(3000, k)
			m.B.FillConst(0.5)
			return m, []*cascade.Cascade{longCascade(3000)}
		},
		"huge": func() (*Model, []*cascade.Cascade) {
			m := randModel(200, k, 31)
			vecmath.Scale(1e150, m.A.Data)
			vecmath.Scale(1e150, m.B.Data)
			c := longCascade(200)
			for i := range c.Infections {
				c.Infections[i].Time = 0
			}
			return m, []*cascade.Cascade{c}
		},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, mat := range []string{"A", "B"} {
			cases[fmt.Sprintf("%v row in %s", v, mat)] = func() (*Model, []*cascade.Cascade) {
				m, cs := kernelCase(60, k, 60, false, uint64(5000+k))
				row := m.A.Row(7)
				if mat == "B" {
					row = m.B.Row(7)
				}
				vecmath.Fill(row, v)
				return m, cs
			}
		}
	}
	return cases
}

func TestLogLikBitIdenticalToColumnLoop(t *testing.T) {
	for _, k := range kernelKs {
		for name, build := range logLikCases(k) {
			m, cs := build()
			var want float64
			for _, c := range cs {
				w := columnLogLik(m, c)
				want += w
				if got := m.LogLik(c); math.Float64bits(got) != math.Float64bits(w) {
					t.Errorf("K=%d %s cascade %d (len %d): LogLik = %v (%#x), column loop %v (%#x)", k, name, c.ID, c.Size(), got, math.Float64bits(got), w, math.Float64bits(w))
				}
			}
			if got := m.LogLikAll(cs); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("K=%d %s: LogLikAll = %v, column loop %v", k, name, got, want)
			}
		}
	}
}

// The training loop calls both kernels once per cascade per step: past
// a warmed workspace neither may allocate per cascade, and at K = 4,
// where every column is in the finishing block, neither allocates at all.
func TestKernelsAllocateNothingPerCascade(t *testing.T) {
	for _, k := range []int{4, 8} {
		m, cs := kernelCase(600, k, 600, false, 7)
		dA, dB := vecmath.NewMatrix(600, k), vecmath.NewMatrix(600, k)
		ws := NewGradWorkspace(k)
		for _, c := range cs {
			m.AccumGrad(c, dA, dB, ws)
		}
		if n := testing.AllocsPerRun(5, func() {
			for _, c := range cs {
				m.AccumGrad(c, dA, dB, ws)
			}
		}); n != 0 {
			t.Errorf("K=%d: AccumGrad with a warmed workspace allocates %v times per pass", k, n)
		}
		one := testing.AllocsPerRun(5, func() { sink += m.LogLikAll(cs[len(cs)-1:]) })
		all := testing.AllocsPerRun(5, func() { sink += m.LogLikAll(cs) })
		if all != one || (k == 4 && all != 0) {
			t.Errorf("K=%d: LogLikAll allocates %v times over %d cascades, %v over one", k, all, len(cs), one)
		}
	}
}

// refEM is the E-step from explicit responsibilities: for every pair of
// an earlier adopter u and a later one v and every topic k, the share
// r = A[u,k]·B[v,k]/s_v of v's infection, added to numA[u,k] and
// numB[v,k], and the exposures (t_v - t_u)·B[v,k] and (t_v - t_u)·A[u,k]
// added to denA[u,k] and denB[v,k]. O(len(c)²·K). It returns the
// cascade's log-likelihood, summed term by term.
func refEM(m *Model, c *cascade.Cascade, numA, denA, numB, denB *vecmath.Matrix) float64 {
	infs := c.Infections
	var ll float64
	for i := 1; i < len(infs); i++ {
		v, tv := infs[i].Node, infs[i].Time
		var s float64
		for _, inf := range infs[:i] {
			rate := vecmath.Dot(m.A.Row(inf.Node), m.B.Row(v))
			s += rate
			ll -= (tv - inf.Time) * rate
		}
		s = math.Max(s, EpsRate)
		ll += math.Log(s)
		for _, inf := range infs[:i] {
			u, dt := inf.Node, tv-inf.Time
			for k := 0; k < m.K(); k++ {
				r := m.A.At(u, k) * m.B.At(v, k) / s
				numA.Data[u*m.K()+k] += r
				numB.Data[v*m.K()+k] += r
				denA.Data[u*m.K()+k] += dt * m.B.At(v, k)
				denB.Data[v*m.K()+k] += dt * m.A.At(u, k)
			}
		}
	}
	return ll
}

// emStats is one epoch's sufficient statistics at a width.
type emStats struct{ numA, denA, numB, denB *vecmath.Matrix }

func newEMStats(n, k int) emStats {
	return emStats{vecmath.NewMatrix(n, k), vecmath.NewMatrix(n, k), vecmath.NewMatrix(n, k), vecmath.NewMatrix(n, k)}
}

// tiedCascade infects size nodes at one instant: every exposure is 0.
func tiedCascade(n, size int, rng *xrand.RNG) *cascade.Cascade {
	c := randCascade(0, n, size, rng)
	for i := range c.Infections {
		c.Infections[i].Time = 3.25
	}
	return c
}

// EMAccum and EMDenB are held to the pairwise responsibilities at every
// width, on cascades with runs of tied times, rows that floor the hazard,
// and one cascade whose infections all tie (its exposures must be 0, not
// a rounding of either sign). The likelihood EMAccum returns is LogLik's
// to the bit.
func TestEMAccumMatchesOracle(t *testing.T) {
	const n = 300
	for _, k := range kernelKs {
		for _, zeroRows := range []bool{false, true} {
			m, cs := kernelCase(n, k, 120, zeroRows, uint64(3000+k))
			cs = append(cs, tiedCascade(n, 40, xrand.New(uint64(k))))
			got, want := newEMStats(n, k), newEMStats(n, k)
			ws := NewGradWorkspace(k)
			for _, c := range cs {
				ll := m.EMAccum(c, got.numA, got.denA, got.numB, ws)
				m.EMDenB(c, got.denB)
				wantLL := refEM(m, c, want.numA, want.denA, want.numB, want.denB)
				if math.Float64bits(ll) != math.Float64bits(m.LogLik(c)) {
					t.Fatalf("K=%d zeroRows=%v cascade %d: EMAccum's loglik %v, LogLik %v", k, zeroRows, c.ID, ll, m.LogLik(c))
				}
				if !(math.Abs(ll-wantLL) <= 1e-12*(1+math.Abs(wantLL))) {
					t.Fatalf("K=%d zeroRows=%v cascade %d: loglik %v, oracle %v", k, zeroRows, c.ID, ll, wantLL)
				}
			}
			for name, pair := range map[string][2]*vecmath.Matrix{
				"numA": {got.numA, want.numA}, "denA": {got.denA, want.denA},
				"numB": {got.numB, want.numB}, "denB": {got.denB, want.denB},
			} {
				for i, w := range pair[1].Data {
					g := pair[0].Data[i]
					if !(math.Abs(g-w) <= 1e-12*(1+math.Abs(w))) || (w == 0) != (g == 0) {
						t.Fatalf("K=%d zeroRows=%v: %s[%d] = %v, oracle %v", k, zeroRows, name, i, g, w)
					}
				}
			}
		}
	}
}

// The ECM loop calls EMAccum and EMDenB once per cascade per epoch: past
// a warmed workspace neither allocates at all.
func TestEMKernelsAllocateNothingPerCascade(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		m, cs := kernelCase(600, k, 600, false, 7)
		st := newEMStats(600, k)
		ws := NewGradWorkspace(k)
		pass := func() {
			for _, c := range cs {
				sink += m.EMAccum(c, st.numA, st.denA, st.numB, ws)
				m.EMDenB(c, st.denB)
			}
		}
		pass()
		if n := testing.AllocsPerRun(5, pass); n != 0 {
			t.Errorf("K=%d: EMAccum and EMDenB with a warmed workspace allocate %v times per pass", k, n)
		}
	}
}

// longCascade infects nodes 0..size-1 in order at unit spacing.
func longCascade(size int) *cascade.Cascade {
	c := &cascade.Cascade{}
	for i := 0; i < size; i++ {
		c.Infections = append(c.Infections, cascade.Infection{Node: i, Time: float64(i)})
	}
	return c
}

// Every hazard floors at EpsRate: the product of the factors is
// 1e-59988, far below the smallest float64, and must still come back as
// the exact sum of logarithms.
func TestLogLikFlooredProductDoesNotUnderflow(t *testing.T) {
	const size = 5000
	m := NewModel(size, 4)
	m.B.FillConst(0.5) // A stays zero: H·B = 0 everywhere, the linear part too
	c := longCascade(size)
	want := (size - 1) * math.Log(EpsRate)
	for name, got := range map[string]float64{"LogLik": m.LogLik(c), "LogLikAll": m.LogLikAll([]*cascade.Cascade{c})} {
		if !(math.Abs(got-want) <= 1e-9*math.Abs(want)) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// Hazards near 1e300 each overflow the running product within two
// factors unless each factor is reduced before it is multiplied in.
func TestLogLikHugeHazardsStayFinite(t *testing.T) {
	const size = 200
	m := randModel(size, 4, 31)
	vecmath.Scale(1e150, m.A.Data)
	vecmath.Scale(1e150, m.B.Data)
	c := longCascade(size)
	for i := range c.Infections {
		c.Infections[i].Time = 0 // keeps the survival terms at 0 instead of -1e300·t
	}
	got, want := m.LogLik(c), refLogLik(m, c)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("LogLik = %v, want finite (reference %v)", got, want)
	}
	if !(math.Abs(got-want) <= 1e-12*(1+math.Abs(want))) {
		t.Fatalf("LogLik = %v, reference %v", got, want)
	}
}

// The divergence guard in package infer tests finite(LogLikAll): a
// poisoned model must not be laundered into a finite likelihood by the
// product accumulator.
func TestLogLikNonFiniteModelSurfaces(t *testing.T) {
	rng := xrand.New(41)
	var cs []*cascade.Cascade
	for i := 0; i < 6; i++ {
		cs = append(cs, randCascade(i, 30, 30, rng))
	}
	poison := map[string]func(m *Model){
		"NaN in B":  func(m *Model) { m.B.Set(7, 1, math.NaN()) },
		"+Inf in A": func(m *Model) { m.A.Set(7, 1, math.Inf(1)) },
		"+Inf in B": func(m *Model) { m.B.Set(7, 1, math.Inf(1)) },
		"NaN in A":  func(m *Model) { m.A.Set(7, 1, math.NaN()) },
	}
	for name, apply := range poison {
		m := randModel(30, 3, 42)
		apply(m)
		if ll := m.LogLikAll(cs); !math.IsNaN(ll) && !math.IsInf(ll, 0) {
			t.Errorf("%s: LogLikAll = %v, want non-finite", name, ll)
		}
	}
}

// benchKs are the widths the kernels are timed at: 4 is what core.Train
// and bench/ fit, 8 the paper's largest, 6 a width with columns outside
// the kernels' blocks of four.
var benchKs = []int{4, 6, 8}

func BenchmarkLogLik(b *testing.B) {
	for _, k := range benchKs {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			m := randModel(1000, k, 1)
			c := randCascade(0, 1000, 200, xrand.New(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += m.LogLik(c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.Size()), "ns/infection")
		})
	}
}

func BenchmarkAccumGrad(b *testing.B) {
	for _, k := range benchKs {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			m := randModel(1000, k, 1)
			c := randCascade(0, 1000, 200, xrand.New(2))
			dA, dB := vecmath.NewMatrix(1000, k), vecmath.NewMatrix(1000, k)
			ws := NewGradWorkspace(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.AccumGrad(c, dA, dB, ws)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.Size()), "ns/infection")
		})
	}
}

func BenchmarkEMAccum(b *testing.B) {
	for _, k := range benchKs {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			m := randModel(1000, k, 1)
			c := randCascade(0, 1000, 200, xrand.New(2))
			st := newEMStats(1000, k)
			ws := NewGradWorkspace(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += m.EMAccum(c, st.numA, st.denA, st.numB, ws)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.Size()), "ns/infection")
		})
	}
}

var sink float64
