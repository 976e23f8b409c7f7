// Kernel benchmarks: Dot and Axpy are the innermost loops of both the
// likelihood/gradient computation and the influence-maximization
// objective, so their per-element cost bounds everything above them.
// bench/ reports the same kernels as vecmath.dot_ns / gemv_ns_per_row.
package vecmath

import "testing"

// benchSizes spans the regimes the model actually uses: K-sized topic
// vectors (small) and row-major bulk passes (large).
var benchSizes = []struct {
	name string
	n    int
}{
	{"K16", 16},
	{"K64", 64},
	{"N4096", 4096},
}

func benchVectors(n int) (a, b []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		a[i] = float64(i%7) * 0.25
		b[i] = float64(i%5) * 0.5
	}
	return a, b
}

var sinkFloat float64

func BenchmarkDot(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			x, y := benchVectors(sz.n)
			b.SetBytes(int64(16 * sz.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFloat = Dot(x, y)
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			x, dst := benchVectors(sz.n)
			b.SetBytes(int64(16 * sz.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Axpy(0.5, x, dst)
			}
		})
	}
}

// BenchmarkGemv measures the blocked batch kernel over the shapes the
// batched predict plane uses: a rows x stride feature block against a
// stride-length weight vector. Compare ns/row here against Dot/K16 to
// see what the shared weight loads buy.
func BenchmarkGemv(b *testing.B) {
	for _, sz := range []struct {
		name         string
		rows, stride int
	}{
		{"B16xK3", 16, 3},
		{"B256xK3", 256, 3},
		{"B256xK16", 256, 16},
	} {
		b.Run(sz.name, func(b *testing.B) {
			x := make([]float64, sz.rows*sz.stride)
			for i := range x {
				x[i] = float64(i%7) * 0.25
			}
			w := make([]float64, sz.stride)
			for j := range w {
				w[j] = float64(j%5) * 0.5
			}
			dst := make([]float64, sz.rows)
			b.SetBytes(int64(8 * sz.rows * sz.stride))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemv(dst, x, sz.stride, w)
			}
		})
	}
}
