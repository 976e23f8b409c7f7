package experiments

import (
	"fmt"
	"strings"
	"time"

	"viralcast/internal/cooccur"
	"viralcast/internal/eval"
	"viralcast/internal/infer"
	"viralcast/internal/mergetree"
	"viralcast/internal/report"
	"viralcast/internal/slpa"
	"viralcast/internal/xrand"
)

// MergePolicyAblation compares Algorithm 2's two merge-tree balancing
// rules — pairing by community count (the paper's design) versus pairing
// by graph-node count (the paper's stated future work) — on runtime at a
// fixed worker count and on the final log-likelihood.
type MergePolicyAblation struct {
	Policy    string
	Imbalance float64 // max/mean node imbalance after the first join
	Seconds   float64 // modeled runtime at the probe worker count
	LogLik    float64 // full-data log-likelihood of the fitted model
}

// AblationMergePolicy runs both policies on the same workload. workers
// is the core count the runtime is modeled at.
func AblationMergePolicy(e SBMExperiment, sc ScalingExperiment, workers int) ([]MergePolicyAblation, error) {
	w, err := BuildSBMWorkload(e)
	if err != nil {
		return nil, err
	}
	g, err := cooccur.Build(w.Train, e.N, cooccur.Options{})
	if err != nil {
		return nil, err
	}
	part := slpa.Detect(g, slpa.Options{}, xrand.New(e.Seed^0x51a9))
	cfg := infer.Config{K: e.InferK, MaxIter: e.MaxIter, Seed: e.Seed + 1}
	var out []MergePolicyAblation
	for _, policy := range []mergetree.Policy{mergetree.ByCommunityCount, mergetree.ByNodeCount} {
		m, tr, err := infer.Hierarchical(w.Train, e.N, part, cfg, infer.ParallelOptions{Workers: 1, Q: sc.Q, Policy: policy})
		if err != nil {
			return nil, err
		}
		joined, err := mergetree.Join(part, policy)
		if err != nil {
			return nil, err
		}
		out = append(out, MergePolicyAblation{
			Policy:    policy.String(),
			Imbalance: mergetree.Imbalance(joined),
			Seconds:   ScheduleCost(tr.Levels, workers, sc.BarrierCost).Seconds(),
			LogLik:    m.LogLikAll(w.Train),
		})
	}
	return out, nil
}

// RenderMergePolicy renders the merge-policy ablation.
func RenderMergePolicy(rows []MergePolicyAblation, workers int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — merge-tree balancing policy (modeled at %d workers)\n", workers)
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			r.Policy,
			report.FormatFloat(r.Imbalance, 3),
			report.FormatFloat(r.Seconds, 3),
			report.FormatFloat(r.LogLik, 1),
		}
	}
	b.WriteString(report.Table([]string{"policy", "imbalance", "seconds", "loglik"}, table))
	return b.String()
}

// OptimizerComparison pits the three inference strategies against each
// other on one workload: flat sequential full-batch ascent, the
// hierarchical community-parallel algorithm, and the Hogwild lock-free
// baseline (paper ref [19]).
type OptimizerComparison struct {
	Name      string
	Seconds   float64
	LogLik    float64 // training log-likelihood of the fitted model
	HeldOutLL float64 // log-likelihood on the held-out cascades
	// Racy marks a fit whose likelihoods depend on thread interleaving
	// (Hogwild's lock-free writes), not only on the seed.
	Racy bool
}

// AblationOptimizers runs the three optimizers on the same workload.
func AblationOptimizers(e SBMExperiment) ([]OptimizerComparison, error) {
	w, err := BuildSBMWorkload(e)
	if err != nil {
		return nil, err
	}
	cfg := infer.Config{K: e.InferK, MaxIter: e.MaxIter, Seed: e.Seed + 1}
	var out []OptimizerComparison

	start := time.Now()
	seqM, _, err := infer.Sequential(w.Train, e.N, cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, OptimizerComparison{
		Name:      "sequential",
		Seconds:   time.Since(start).Seconds(),
		LogLik:    seqM.LogLikAll(w.Train),
		HeldOutLL: seqM.LogLikAll(w.Test),
	})

	start = time.Now()
	hierM, _, err := w.FitEmbeddings()
	if err != nil {
		return nil, err
	}
	out = append(out, OptimizerComparison{
		Name:      "hierarchical",
		Seconds:   time.Since(start).Seconds(),
		LogLik:    hierM.LogLikAll(w.Train),
		HeldOutLL: hierM.LogLikAll(w.Test),
	})

	start = time.Now()
	hogM, _, err := infer.Hogwild(w.Train, e.N, infer.Config{
		K: e.InferK, Seed: e.Seed + 1,
	}, infer.HogwildOptions{Workers: e.Workers, Epochs: e.MaxIter, LearnRate: 0.02})
	if err != nil {
		return nil, err
	}
	out = append(out, OptimizerComparison{
		Name:      "hogwild",
		Seconds:   time.Since(start).Seconds(),
		LogLik:    hogM.LogLikAll(w.Train),
		HeldOutLL: hogM.LogLikAll(w.Test),
		Racy:      true,
	})
	return out, nil
}

// RenderOptimizers renders what the seed determines of the optimizer
// comparison: the likelihoods of every fit but the racy ones (Seconds
// is a wall clock and is left out too).
func RenderOptimizers(rows []OptimizerComparison) string {
	var b strings.Builder
	b.WriteString("Ablation — optimizer comparison\n")
	var table [][]string
	for _, r := range rows {
		if !r.Racy {
			table = append(table, []string{r.Name, report.FormatFloat(r.LogLik, 1), report.FormatFloat(r.HeldOutLL, 1)})
		}
	}
	b.WriteString(report.Table([]string{"optimizer", "train-loglik", "heldout-loglik"}, table))
	return b.String()
}

// FeatureAblation reports the virality-prediction F1 of individual
// features and feature groups at the top-20% threshold — quantifying
// what the embedding features add over the model-free early-count
// baseline.
type FeatureAblation struct {
	Features []string
	F1       float64
}

// AblationFeatures evaluates feature subsets on one fitted workload.
func AblationFeatures(e SBMExperiment) ([]FeatureAblation, error) {
	w, err := BuildSBMWorkload(e)
	if err != nil {
		return nil, err
	}
	model, _, err := w.FitEmbeddings()
	if err != nil {
		return nil, err
	}
	sets, sizes, err := w.PredictionData(model)
	if err != nil {
		return nil, err
	}
	threshold := eval.TopFractionThreshold(sizes, 0.2)
	groups := [][]string{
		{"diverA"},
		{"normA"},
		{"maxA"},
		{"diverA", "normA", "maxA"},
		{"earlyCount"},
		{"diverA", "normA", "maxA", "earlyCount", "earlyRate"},
	}
	var out []FeatureAblation
	for _, g := range groups {
		cl, err := Classify(sets, sizes, threshold, g, 10, e.Seed+13)
		if err != nil {
			return nil, err
		}
		out = append(out, FeatureAblation{Features: g, F1: cl.F1()})
	}
	return out, nil
}

// RenderFeatures renders the feature ablation.
func RenderFeatures(rows []FeatureAblation) string {
	var b strings.Builder
	b.WriteString("Ablation — feature sets at the top-20% threshold\n")
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{strings.Join(r.Features, "+"), report.FormatFloat(r.F1, 3)}
	}
	b.WriteString(report.Table([]string{"features", "F1"}, table))
	return b.String()
}

// TopicSweep reports prediction F1 and held-out likelihood as the
// inference topic dimension K varies.
type TopicSweep struct {
	K         int
	F1        float64
	HeldOutLL float64
}

// AblationTopicK sweeps the latent dimension of the inferred model.
func AblationTopicK(e SBMExperiment, ks []int) ([]TopicSweep, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16}
	}
	w, err := BuildSBMWorkload(e)
	if err != nil {
		return nil, err
	}
	var out []TopicSweep
	for _, k := range ks {
		m, _, err := w.fit(w.Train, k)
		if err != nil {
			return nil, err
		}
		sets, sizes, err := w.PredictionData(m)
		if err != nil {
			return nil, err
		}
		threshold := eval.TopFractionThreshold(sizes, 0.2)
		f1 := 0.0
		if cl, err := Classify(sets, sizes, threshold, nil, 10, e.Seed+17); err == nil {
			f1 = cl.F1()
		}
		out = append(out, TopicSweep{K: k, F1: f1, HeldOutLL: m.LogLikAll(w.Test)})
	}
	return out, nil
}

// RenderTopicSweep renders the K sweep.
func RenderTopicSweep(rows []TopicSweep) string {
	var b strings.Builder
	b.WriteString("Ablation — inference topic dimension K\n")
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			fmt.Sprintf("%d", r.K),
			report.FormatFloat(r.F1, 3),
			report.FormatFloat(r.HeldOutLL, 1),
		}
	}
	b.WriteString(report.Table([]string{"K", "top-20% F1", "heldout-loglik"}, table))
	return b.String()
}
