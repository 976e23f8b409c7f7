package slpa

import (
	"testing"

	"viralcast/internal/cooccur"
	"viralcast/internal/workload"
	"viralcast/internal/xrand"
)

// BenchmarkDetectCooccur runs Detect (T = 20) on the
// graph training detects communities in: the co-occurrence graph of a
// 1,000-cascade draw over an 800-node SBM, the size of bench/'s train
// workload (117,996 arcs). It is dense where BenchmarkDetectSBM is
// sparse; compare the two with -cpu 1,2. Beside ns/op it reports the
// rounds the timed calls ran before the partition was certain, counted
// again by propagate once the timer has stopped.
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
		Detect(g, Options{}, xrand.New(uint64(i)))
	}
	b.StopTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		_, rounds := propagate(g, propagationRounds, xrand.New(uint64(i)))
		total += rounds
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds")
}
