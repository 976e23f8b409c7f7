package slpa_test

import (
	"testing"

	"viralcast/internal/cooccur"
	"viralcast/internal/slpa"
	"viralcast/internal/workload"
	"viralcast/internal/xrand"
)

// BenchmarkDetectCooccur runs Detect, default options (50 rounds), on the
// graph training detects communities in: the co-occurrence graph of a
// 1,000-cascade draw over an 800-node SBM, the size of bench/'s train
// workload (97,966 edges). It is dense where BenchmarkDetectSBM is
// sparse; compare the two with -cpu 1,2.
func BenchmarkDetectCooccur(b *testing.B) {
	c := workload.Default()
	c.N, c.Cascades, c.Window = 800, 1000, 8
	d, err := workload.Build(c)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cooccur.Build(d.Cascades, c.N, cooccur.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(g.M()), "edges")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slpa.Detect(g, slpa.Options{}, xrand.New(uint64(i)))
	}
}
