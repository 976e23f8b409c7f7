// Benchmarks, one per reproduced figure plus the ablations DESIGN.md
// commits to. Each benchmark regenerates its figure's series at a
// reduced-but-structurally-faithful scale so `go test -bench=.` finishes
// in minutes; pass -benchtime=1x (the default behavior for these heavy
// benches is already one iteration at a time) and see cmd/figures for
// paper-scale runs.
package viralcast_test

import (
	"sync/atomic"
	"testing"

	"viralcast/internal/experiments"
	"viralcast/internal/gdelt"
	"viralcast/internal/serve"
	"viralcast/internal/wal"
)

func benchSBM() experiments.SBMExperiment {
	e := experiments.DefaultSBM()
	e.N = 800
	e.Cascades = 900
	e.Train = 600
	e.MaxIter = 10
	return e
}

// benchWorkload draws and fits e's workload inside the timed loop, so
// each SBM benchmark times the whole pipeline its harness reads.
func benchWorkload(b *testing.B, e experiments.SBMExperiment) *experiments.SBMWorkload {
	w, err := experiments.BuildSBMWorkload(e)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func benchGDELT() gdelt.Config {
	cfg := gdelt.DefaultConfig()
	cfg.Sites = 800
	cfg.Events = 1000
	cfg.CrossLinks = 120
	cfg.Seed = 1
	return cfg
}

// BenchmarkFigure1 regenerates the Ward dendrogram of news-event
// cascades (paper Figure 1).
func BenchmarkFigure1(b *testing.B) {
	ds, err := gdelt.Generate(benchGDELT())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(ds, 800, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the co-reporting backbone (Figure 2).
func BenchmarkFigure2(b *testing.B) {
	ds, err := gdelt.Generate(benchGDELT())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(ds, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the site-popularity power law (Figure 3).
func BenchmarkFigure3(b *testing.B) {
	ds, err := gdelt.Generate(benchGDELT())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(ds, 2, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigures6to9 regenerates the SBM prediction study: the three
// feature-vs-size scatters (Figures 6-8) and the F1-vs-threshold sweep
// (Figure 9) in one pass, as in the paper.
func BenchmarkFigures6to9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figures6to9(benchWorkload(b, benchSBM())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates time-vs-cores for two cascade counts
// (Figure 10).
func BenchmarkFigure10(b *testing.B) {
	sc := experiments.DefaultScaling()
	sc.MaxIter = 8
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(sc, 800, []int{300, 600}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11 regenerates time-vs-cores for two graph sizes
// (Figure 11).
func BenchmarkFigure11(b *testing.B) {
	sc := experiments.DefaultScaling()
	sc.MaxIter = 8
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(sc, []int{400, 800}, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12 regenerates the GDELT virality prediction sweep
// (Figure 12).
func BenchmarkFigure12(b *testing.B) {
	e := experiments.DefaultGDELTPrediction()
	e.Dataset = benchGDELT()
	e.MaxIter = 8
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure12(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13 regenerates speedup/efficiency (Figure 13, derived
// from Figure 10's measurement).
func BenchmarkFigure13(b *testing.B) {
	sc := experiments.DefaultScaling()
	sc.MaxIter = 8
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure10(sc, 800, []int{600})
		if err != nil {
			b.Fatal(err)
		}
		res := &experiments.Figure13Result{Series: series}
		for _, s := range res.Series {
			_ = s.Speedup()
			_ = s.Efficiency()
		}
	}
}

// BenchmarkAblationMergeBalance compares the two merge-tree balancing
// policies (the paper's design vs its stated future work).
func BenchmarkAblationMergeBalance(b *testing.B) {
	sc := experiments.DefaultScaling()
	sc.MaxIter = 6
	e := benchSBM()
	e.MaxIter = 6
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMergePolicy(benchWorkload(b, e), sc, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOptimizers compares sequential, hierarchical, and
// Hogwild inference on the same workload.
func BenchmarkAblationOptimizers(b *testing.B) {
	e := benchSBM()
	e.MaxIter = 6
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOptimizers(benchWorkload(b, e)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineEdgeModel compares node-embedding inference against
// the NetRate-style per-edge baseline the paper argues against.
func BenchmarkBaselineEdgeModel(b *testing.B) {
	e := benchSBM()
	e.MaxIter = 6
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CompareEdgeBaseline(benchWorkload(b, e)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend contrasts the write-ahead log's two durability
// modes under concurrent ingest: a baseline that fsyncs every event
// individually versus the group-commit path, where one fsync covers
// every append that queued while the previous fsync was in flight. The
// group-commit throughput win (10x and up on ordinary disks) is the
// whole argument for the design; ReportMetric exposes how many appends
// each fsync amortized.
func BenchmarkWALAppend(b *testing.B) {
	run := func(b *testing.B, opt wal.Options) {
		l, err := wal.Open(b.TempDir(), opt, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		// Group commit amortizes across whatever is in flight, so the
		// contrast needs real concurrency: 256x GOMAXPROCS ingest streams
		// (a single-digit count barely queues during a fast fsync).
		b.SetParallelism(256)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			node := 0
			for pb.Next() {
				node++
				if err := l.Append(wal.Event{Cascade: 1, Node: node, Time: 0.5}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		st := l.Stats()
		if st.Fsyncs > 0 {
			b.ReportMetric(float64(st.Appends)/float64(st.Fsyncs), "appends/fsync")
		}
	}
	b.Run("per-event-fsync", func(b *testing.B) { run(b, wal.Options{NoGroupCommit: true}) })
	b.Run("group-commit", func(b *testing.B) { run(b, wal.Options{}) })
}

// BenchmarkStoreAppend measures the in-memory half of the ingest path:
// the sharded live-cascade store under the same concurrent load, for
// reading the WAL numbers in context (how much of an ingest's cost is
// durability vs bookkeeping).
func BenchmarkStoreAppend(b *testing.B) {
	s := serve.NewStore()
	var next atomic.Int64
	b.SetParallelism(256)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// Spread across cascades like real traffic so shards share load;
			// a globally fresh node id per event keeps the SI duplicate
			// guard quiet (per-goroutine counters would collide).
			node := int(next.Add(1))
			if _, err := s.Append(serve.Event{Cascade: node % 64, Node: node, Time: 0.5}, 1<<31); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaselinePredictors compares the three predictor families of
// paper §V on one workload.
func BenchmarkBaselinePredictors(b *testing.B) {
	e := benchSBM()
	e.MaxIter = 6
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ComparePredictors(benchWorkload(b, e)); err != nil {
			b.Fatal(err)
		}
	}
}
