package experiments

import (
	"fmt"
	"slices"
	"strings"

	"viralcast/internal/embed"
	"viralcast/internal/eval"
	"viralcast/internal/infer"
	"viralcast/internal/mergetree"
	"viralcast/internal/report"
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

// AblationMergePolicy compares the two policies on the workload's fit
// stopped at sc.Q communities. workers is the core count the runtime is
// modeled at. By community count is the fit's own hierarchy: the levels
// mergetree.Levels returns for sc.Q are a prefix of those for Q = 1, and
// each level's fit is determined by the one before, so the fit's trace
// cut at the first level with at most sc.Q communities is the trace of a
// fit stopped there. By node count refits over the fit's partition.
func AblationMergePolicy(w *SBMWorkload, sc ScalingExperiment, workers int) ([]MergePolicyAblation, error) {
	part, levels := w.Fit.Partition, w.Fit.Trace.Levels
	cut := 1 + slices.IndexFunc(levels, func(l infer.LevelStats) bool { return l.Communities <= max(sc.Q, 1) })
	_, byNode, err := infer.Hierarchical(w.Train, w.Exp.N, part, w.inferConfig(),
		infer.ParallelOptions{Workers: w.Exp.Workers, Q: sc.Q, Policy: mergetree.ByNodeCount})
	if err != nil {
		return nil, err
	}
	var out []MergePolicyAblation
	for _, run := range []struct {
		policy mergetree.Policy
		levels []infer.LevelStats
	}{{mergetree.ByCommunityCount, levels[:cut]}, {mergetree.ByNodeCount, byNode.Levels}} {
		joined, err := mergetree.Join(part, run.policy)
		if err != nil {
			return nil, err
		}
		out = append(out, MergePolicyAblation{
			Policy:    run.policy.String(),
			Imbalance: mergetree.Imbalance(joined),
			Seconds:   ScheduleCost(run.levels, workers, sc.BarrierCost).Seconds(),
			LogLik:    run.levels[len(run.levels)-1].LogLik,
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
	Name string
	// Seconds is the fit's wall time; for the hierarchical row, the
	// whole core.Train (co-occurrence and SLPA included).
	Seconds   float64
	LogLik    float64 // training log-likelihood of the fitted model
	HeldOutLL float64 // log-likelihood on the held-out cascades
	// Racy marks a fit whose likelihoods depend on thread interleaving
	// (Hogwild's lock-free writes), not only on the seed.
	Racy bool
	// Trace is the fit's trajectory: the objective per epoch (sequential,
	// Hogwild) or the statistics per level (hierarchical).
	Trace *infer.Trace
}

// AblationOptimizers fits the workload's training cascades sequentially
// and by Hogwild, and sets the two beside the workload's hierarchical
// core.Train fit. The rows' traces are the convergence study's
// trajectories (RenderConvergence).
func AblationOptimizers(w *SBMWorkload) ([]OptimizerComparison, error) {
	cfg := w.inferConfig()
	seqM, seqTr, err := infer.Sequential(w.Train, w.Exp.N, cfg)
	if err != nil {
		return nil, err
	}
	hogM, hogTr, err := infer.Hogwild(w.Train, w.Exp.N, infer.Config{K: cfg.K, Seed: cfg.Seed},
		infer.HogwildOptions{Workers: w.Exp.Workers, Epochs: w.Exp.MaxIter, LearnRate: 0.02})
	if err != nil {
		return nil, err
	}
	row := func(name string, m *embed.Model, tr *infer.Trace, seconds float64) OptimizerComparison {
		return OptimizerComparison{
			Name:      name,
			Seconds:   seconds,
			LogLik:    m.LogLikAll(w.Train),
			HeldOutLL: m.LogLikAll(w.Test),
			Trace:     tr,
		}
	}
	hog := row("hogwild", hogM, hogTr, hogTr.Elapsed.Seconds())
	hog.Racy = true
	return []OptimizerComparison{
		row("sequential", seqM, seqTr, seqTr.Elapsed.Seconds()),
		row("hierarchical", w.Fit.Embeddings, w.Fit.Trace, w.FitSeconds),
		hog,
	}, nil
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

// AblationFeatures evaluates feature subsets on the workload's fit.
func AblationFeatures(w *SBMWorkload) ([]FeatureAblation, error) {
	groups := [][]string{
		{"diverA"},
		{"normA"},
		{"maxA"},
		trioFeatures,
		{"earlyCount"},
		{"diverA", "normA", "maxA", "earlyCount", "earlyRate"},
	}
	var out []FeatureAblation
	for _, g := range groups {
		cl, err := w.Score(g)
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

// AblationTopicK sweeps the latent dimension of the inferred model. The
// workload's own K reads its fit; every other K is a core.Train fit of
// its own. Each is scored under the workload's CV seed.
func AblationTopicK(w *SBMWorkload, ks []int) ([]TopicSweep, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16}
	}
	var out []TopicSweep
	for _, k := range ks {
		m, sets, sizes := w.Fit.Embeddings, w.Sets, w.Sizes
		if k != w.Exp.InferK {
			sys, err := w.train(w.Train, k)
			if err != nil {
				return nil, err
			}
			m = sys.Embeddings
			if sets, sizes, err = w.PredictionData(m); err != nil {
				return nil, err
			}
		}
		cl, err := Classify(sets, sizes, eval.TopFractionThreshold(sizes, 0.2), nil, 10, w.cvSeed())
		if err != nil {
			return nil, err
		}
		out = append(out, TopicSweep{K: k, F1: cl.F1(), HeldOutLL: m.LogLikAll(w.Test)})
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
