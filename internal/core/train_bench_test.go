package core_test

import (
	"runtime"
	"testing"

	"viralcast/internal/core"
	"viralcast/internal/workload"
)

// BenchmarkTrain times one whole fit — co-occurrence graph, SLPA, the
// merge tree and Alg. 2's ascent — on the shape of bench/'s train
// workload: 1,000 cascades over an 800-node SBM, K = 4, ten epochs,
// Workers = GOMAXPROCS (compare with -cpu 1,2).
func BenchmarkTrain(b *testing.B) {
	c := workload.Default()
	c.N, c.Cascades, c.Window = 800, 1000, 8
	d, err := workload.Build(c)
	if err != nil {
		b.Fatal(err)
	}
	infections := 0
	for _, cs := range d.Cascades {
		infections += cs.Size()
	}
	cfg := core.TrainConfig{Topics: 4, MaxIter: 10, Workers: runtime.GOMAXPROCS(0), Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(d.Cascades, c.N, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*infections), "ns/infection")
}
