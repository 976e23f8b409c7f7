// Package vecmath provides the small dense linear-algebra substrate used by
// the embedding model: float64 vectors, row-major matrices, and the
// non-negative projection required by the paper's projected gradient
// ascent. It is deliberately minimal and allocation-conscious; all hot
// paths operate in place on caller-provided slices.
package vecmath

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
// It panics if the lengths differ, as that is always a programming
// error. The panic message is a plain constant: formatting the lengths
// would push Dot past the inlining budget, and Dot is called once per
// element pair inside O(n²) loops where the call overhead is measurable.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	// Pin b's length to a's so the compiler proves b[i] in bounds and
	// drops the per-element check inside the hot loop.
	b = b[:len(a)]
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Axpy computes dst += alpha*x element-wise. Like Dot it stays within
// the inlining budget: constant panic message, pinned lengths.
func Axpy(alpha float64, x, dst []float64) {
	if len(x) != len(dst) {
		panic("vecmath: Axpy length mismatch")
	}
	dst = dst[:len(x)] // bounds-check hoist, as in Dot
	for i, xv := range x {
		dst[i] += alpha * xv
	}
}

// Add computes dst += x element-wise.
func Add(x, dst []float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("vecmath: Add length mismatch %d != %d", len(x), len(dst)))
	}
	for i, xv := range x {
		dst[i] += xv
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for
// large components by scaling.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Dist2 length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Max returns the maximum element of x and its index.
// It panics on an empty slice.
func Max(x []float64) (float64, int) {
	if len(x) == 0 {
		panic("vecmath: Max of empty slice")
	}
	best, at := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, at = v, i+1
		}
	}
	return best, at
}

// Gemv computes the matrix–vector product of a row-major block against
// a weight vector: dst[i] = w · x[i*stride : i*stride+len(w)] for every
// row i in [0, len(dst)). It is the wide-batch form of calling Dot once
// per row, and is guaranteed bit-identical to that: each row's
// accumulator adds the products w[j]*row[j] in the same j order a Dot
// over that row would, so batched classifier margins equal
// single-request margins down to the last ULP. The blocking is over
// rows, not the accumulation: four rows share each load of w, which is
// what makes the batch form faster, while every row keeps its own
// strictly sequential accumulator.
//
// stride may exceed len(w) (padded rows); x must hold len(dst) full
// strides.
func Gemv(dst, x []float64, stride int, w []float64) {
	if len(w) > stride {
		panic("vecmath: Gemv weight vector longer than the row stride")
	}
	if len(x) < len(dst)*stride {
		panic("vecmath: Gemv block shorter than rows*stride")
	}
	rows := len(dst)
	i := 0
	for ; i+4 <= rows; i += 4 {
		r0 := x[(i+0)*stride : (i+0)*stride+len(w)]
		r1 := x[(i+1)*stride : (i+1)*stride+len(w)]
		r2 := x[(i+2)*stride : (i+2)*stride+len(w)]
		r3 := x[(i+3)*stride : (i+3)*stride+len(w)]
		var s0, s1, s2, s3 float64
		for j, wv := range w {
			s0 += wv * r0[j]
			s1 += wv * r1[j]
			s2 += wv * r2[j]
			s3 += wv * r3[j]
		}
		dst[i+0] = s0
		dst[i+1] = s1
		dst[i+2] = s2
		dst[i+3] = s3
	}
	for ; i < rows; i++ {
		dst[i] = Dot(w, x[i*stride:i*stride+len(w)])
	}
}

// AllNonneg reports whether every element of x is >= 0.
func AllNonneg(x []float64) bool {
	for _, v := range x {
		if v < 0 {
			return false
		}
	}
	return true
}

// AllFinite reports whether every element of x is finite (no NaN/Inf).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Matrix is a dense row-major matrix. Rows index nodes; columns index
// latent topics in the embedding model. The zero value is an empty matrix.
type Matrix struct {
	RowsN int
	ColsN int
	Data  []float64 // len == RowsN*ColsN
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vecmath: NewMatrix negative dims %dx%d", rows, cols))
	}
	return &Matrix{RowsN: rows, ColsN: cols, Data: make([]float64, rows*cols)}
}

// Row returns the i-th row as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.ColsN : (i+1)*m.ColsN]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.ColsN+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.ColsN+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.RowsN, m.ColsN)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src's contents into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.RowsN != src.RowsN || m.ColsN != src.ColsN {
		panic(fmt.Sprintf("vecmath: CopyFrom shape mismatch %dx%d != %dx%d",
			m.RowsN, m.ColsN, src.RowsN, src.ColsN))
	}
	copy(m.Data, src.Data)
}

// FillConst sets every entry to v.
func (m *Matrix) FillConst(v float64) { Fill(m.Data, v) }

// FrobeniusDist returns the Frobenius distance between m and o.
func (m *Matrix) FrobeniusDist(o *Matrix) float64 {
	if m.RowsN != o.RowsN || m.ColsN != o.ColsN {
		panic("vecmath: FrobeniusDist shape mismatch")
	}
	var s float64
	for i, v := range m.Data {
		d := v - o.Data[i]
		s += d * d
	}
	return math.Sqrt(s)
}
