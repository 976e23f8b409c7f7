package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{nil, nil, 0},
		{[]float64{1}, []float64{2}, 2},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{-1, 0.5}, []float64{2, 4}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Dot(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 2, 3}
	Axpy(2, []float64{1, 1, 1}, dst)
	want := []float64{3, 4, 5}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", dst, want)
		}
	}
}

func TestAddScaleFill(t *testing.T) {
	dst := []float64{1, 2}
	Add([]float64{3, 4}, dst)
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("Add result %v", dst)
	}
	Scale(0.5, dst)
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("Scale result %v", dst)
	}
	Fill(dst, 7)
	if dst[0] != 7 || dst[1] != 7 {
		t.Fatalf("Fill result %v", dst)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm2(3,4) = %v", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v", got)
	}
	// Overflow-safe scaling: naive sum of squares would overflow.
	big := []float64{1e200, 1e200}
	if got := Norm2(big); math.IsInf(got, 0) || !almostEq(got, 1e200*math.Sqrt2, 1e-10) {
		t.Errorf("Norm2 overflow guard failed: %v", got)
	}
}

func TestDist2(t *testing.T) {
	if got := Dist2([]float64{0, 0}, []float64{3, 4}); !almostEq(got, 5, 1e-12) {
		t.Errorf("Dist2 = %v", got)
	}
}

func TestSumMax(t *testing.T) {
	if got := Sum([]float64{1, 2, 3}); got != 6 {
		t.Errorf("Sum = %v", got)
	}
	v, i := Max([]float64{1, 5, 3})
	if v != 5 || i != 1 {
		t.Errorf("Max = %v at %d", v, i)
	}
	v, i = Max([]float64{-2, -1, -3})
	if v != -1 || i != 1 {
		t.Errorf("Max negatives = %v at %d", v, i)
	}
}

func TestMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max did not panic on empty")
		}
	}()
	Max(nil)
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestDotPropertySymmetric(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		for _, v := range append(append([]float64(nil), a...), b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip degenerate inputs
			}
		}
		return almostEq(Dot(a, b), Dot(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Dist2.
func TestDist2PropertyTriangle(t *testing.T) {
	f := func(a, b, c []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if len(c) < n {
			n = len(c)
		}
		a, b, c = a[:n], b[:n], c[:n]
		for _, s := range [][]float64{a, b, c} {
			for _, v := range s {
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
					return true
				}
			}
		}
		return Dist2(a, c) <= Dist2(a, b)+Dist2(b, c)+1e-9*(1+Dist2(a, b)+Dist2(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Error("AllFinite false on finite input")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("AllFinite true on NaN")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("AllFinite true on Inf")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 2)
	if m.RowsN != 3 || m.ColsN != 2 || len(m.Data) != 6 {
		t.Fatalf("NewMatrix shape wrong: %+v", m)
	}
	m.Set(1, 1, 5)
	if m.At(1, 1) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone must deep-copy")
	}
	m2 := NewMatrix(3, 2)
	m2.CopyFrom(m)
	if m2.At(1, 1) != 5 {
		t.Fatal("CopyFrom failed")
	}
	m2.FillConst(1)
	if m2.At(2, 1) != 1 {
		t.Fatal("FillConst failed")
	}
}

func TestMatrixProjectAndFrobenius(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, -3)
	m.Set(1, 1, 4)
	o := NewMatrix(2, 2)
	if got := m.FrobeniusDist(o); !almostEq(got, 5, 1e-12) {
		t.Errorf("FrobeniusDist = %v, want 5", got)
	}
}

func TestMatrixShapePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	o := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"CopyFrom":      func() { m.CopyFrom(o) },
		"FrobeniusDist": func() { m.FrobeniusDist(o) },
		"NewMatrixNeg":  func() { NewMatrix(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// TestGemvBitIdenticalToDot is the contract the batched predict path
// stands on: a Gemv over a row-major block must produce, for every row,
// exactly the float64 Dot would produce over that row — not merely close.
func TestGemvBitIdenticalToDot(t *testing.T) {
	for _, tc := range []struct{ rows, stride, dim int }{
		{1, 3, 3}, {3, 3, 3}, {4, 3, 3}, {7, 5, 5}, {256, 3, 3}, {9, 8, 5},
	} {
		x := make([]float64, tc.rows*tc.stride)
		for i := range x {
			// Awkward magnitudes so any reassociation shows up in the bits.
			x[i] = float64(i%13)*1e-3 + float64(i%7)*1e8
		}
		w := make([]float64, tc.dim)
		for j := range w {
			w[j] = float64(j+1) * 0.3
		}
		dst := make([]float64, tc.rows)
		Gemv(dst, x, tc.stride, w)
		for i := 0; i < tc.rows; i++ {
			want := Dot(w, x[i*tc.stride:i*tc.stride+tc.dim])
			if dst[i] != want {
				t.Fatalf("rows=%d stride=%d: row %d Gemv=%x Dot=%x", tc.rows, tc.stride, i, dst[i], want)
			}
		}
	}
}

func TestGemvPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"weight longer than stride": func() { Gemv(make([]float64, 1), make([]float64, 4), 2, make([]float64, 3)) },
		"block too short":           func() { Gemv(make([]float64, 3), make([]float64, 4), 2, make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gemv did not panic: %s", name)
				}
			}()
			fn()
		}()
	}
}
