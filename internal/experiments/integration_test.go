package experiments

import (
	"testing"

	"viralcast/internal/stats"
)

// TestEndToEndInfluenceRecovery is the repository's broadest integration
// check: build a workload with planted Pareto influence, run the full
// inference pipeline on the raw cascades alone, and verify the inferred
// per-node influence mass correlates positively with the planted ground
// truth — the property the paper's influencer-identification application
// (§I, §VII) depends on.
//
// Note the deliberate contrast probed here: raw activity (how often a
// node appears in cascades) is NOT influence — most appearances are as a
// receiver — and in near-critical regimes the planted influence itself
// correlates only weakly with follower counts. The embedding method must
// track the planted influence, not the activity.
func TestEndToEndInfluenceRecovery(t *testing.T) {
	e := DefaultSBM()
	e.N = 600
	e.Cascades = 900
	e.Train = 700
	e.MaxIter = 15
	w, err := BuildSBMWorkload(e)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Fit.Embeddings
	counts := make([]float64, e.N)
	for _, c := range w.Train {
		for _, inf := range c.Infections {
			counts[inf.Node]++
		}
	}
	var inferred, planted []float64
	for u := 0; u < e.N; u++ {
		if counts[u] < 3 {
			continue // unobservable nodes carry no signal either way
		}
		var im, pm float64
		for k := 0; k < m.K(); k++ {
			im += m.A.At(u, k)
		}
		for k := 0; k < w.Truth.K(); k++ {
			pm += w.Truth.A.At(u, k)
		}
		inferred = append(inferred, im)
		planted = append(planted, pm)
	}
	if len(inferred) < 100 {
		t.Fatalf("only %d observable nodes", len(inferred))
	}
	r := stats.Spearman(inferred, planted)
	t.Logf("influence recovery: Spearman %.3f over %d observable nodes", r, len(inferred))
	if r < 0.2 {
		t.Errorf("inferred influence uncorrelated with planted truth: Spearman %.3f", r)
	}
}
