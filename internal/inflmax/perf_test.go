// Parallel-CELF tests and benchmarks: the sharded initial pass and
// batched lazy re-evaluations must select the exact same seed set for
// every worker count, with or without the precomputed dead-row
// shortcuts. BenchmarkGreedySeeds tracks how the initial pass scales
// with workers (bench/ reports workers-1 CELF as inflmax.greedy_ms).
package inflmax

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"viralcast/internal/embed"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// greedyModel builds a model with ties (duplicate rows) and dead rows
// (zero influence / zero selectivity) so tie-breaking and the Precomp
// shortcuts are both exercised.
func greedyModel(n, k int, seed uint64) *embed.Model {
	m := embed.NewModel(n, k)
	m.InitUniform(xrand.New(seed), 0, 0.5)
	for u := 6; u < n; u += 6 {
		copy(m.A.Row(u), m.A.Row(u-6))
		copy(m.B.Row(u), m.B.Row(u-6))
	}
	for u := 4; u < n; u += 17 {
		row := m.A.Row(u)
		for i := range row {
			row[i] = 0
		}
	}
	for u := 9; u < n; u += 23 {
		row := m.B.Row(u)
		for i := range row {
			row[i] = 0
		}
	}
	return m
}

// precompute builds m's dead-row aggregates, as core.System does.
func precompute(m *embed.Model) *Precomp {
	p := &Precomp{ASum: make([]float64, m.N()), BSum: make([]float64, m.N())}
	for u := range p.ASum {
		p.ASum[u] = vecmath.Sum(m.A.Row(u))
		p.BSum[u] = vecmath.Sum(m.B.Row(u))
	}
	return p
}

func TestGreedyOptDeterministicAcrossWorkers(t *testing.T) {
	m := greedyModel(120, 3, 77)
	ctx := context.Background()
	want, err := GreedyOpt(ctx, m, 1.5, 8, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 8 {
		t.Fatalf("selected %d seeds, want 8", len(want))
	}
	pre := precompute(m)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, p := range []*Precomp{nil, pre} {
			got, err := GreedyOpt(ctx, m, 1.5, 8, nil, Options{Workers: workers, Pre: p})
			if err != nil {
				t.Fatalf("workers=%d pre=%v: %v", workers, p != nil, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d pre=%v: seed set diverges\n got %+v\nwant %+v",
					workers, p != nil, got, want)
			}
		}
	}
}

func TestGreedyOptMatchesLegacySequential(t *testing.T) {
	// GreedyCtx (the legacy entry point) must behave as the default-
	// options GreedyOpt, including on a restricted candidate set with
	// duplicates.
	m := greedyModel(80, 2, 13)
	cands := []int{3, 9, 9, 27, 14, 55, 70, 3, 41}
	a, err := GreedyCtx(context.Background(), m, 1, 4, cands)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyOpt(context.Background(), m, 1, 4, cands, Options{Workers: 4, Pre: precompute(m)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("restricted-candidate selection diverges: %+v vs %+v", a, b)
	}
}

func TestCoverageOptMatchesCoverage(t *testing.T) {
	m := greedyModel(90, 3, 5)
	seeds := []int{1, 4, 4, 9, 60, 33} // duplicate seed must count once
	plain, err := Coverage(m, 2, seeds)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := CoverageOpt(m, 2, seeds, Options{Pre: precompute(m)})
	if err != nil {
		t.Fatal(err)
	}
	if plain != pre {
		t.Fatalf("coverage with precomp %v != without %v", pre, plain)
	}
}

// A mismatched Precomp must be ignored, not trusted.
func TestGreedyOptIgnoresStalePrecomp(t *testing.T) {
	good := greedyModel(30, 2, 3)
	stale := &Precomp{ASum: make([]float64, 7), BSum: make([]float64, 7)}
	a, err := GreedyOpt(context.Background(), good, 1, 3, nil, Options{Pre: stale})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyOpt(context.Background(), good, 1, 3, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("stale Precomp changed the selection")
	}
}

// BenchmarkGreedySeeds measures the full selection (initial pass +
// lazy rounds) across worker counts; the initial pass is the dominant
// term and is what shards.
func BenchmarkGreedySeeds(b *testing.B) {
	m := greedyModel(2000, 8, 1)
	pre := precompute(m)
	ctx := context.Background()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GreedyOpt(ctx, m, 1, 5, nil, Options{Workers: w, Pre: pre}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
