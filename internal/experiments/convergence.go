package experiments

import (
	"strings"

	"viralcast/internal/cooccur"
	"viralcast/internal/infer"
	"viralcast/internal/report"
	"viralcast/internal/slpa"
	"viralcast/internal/xrand"
)

// ConvergenceResult backs the paper's §I claim that "the block-coordinate
// stochastic gradient descent algorithm converges very fast in practice":
// the full-data log-likelihood trajectory of each optimizer, indexed by
// epoch (sequential, Hogwild) or by hierarchy level (hierarchical).
type ConvergenceResult struct {
	Sequential   []float64 // loglik after each accepted epoch
	Hogwild      []float64 // loglik after each epoch
	Hierarchical []float64 // loglik after each level
	// HierLevels records the community count at each hierarchical point.
	HierLevels []int
}

// ConvergenceStudy fits the three optimizers on one workload and records
// their likelihood trajectories.
func ConvergenceStudy(e SBMExperiment) (*ConvergenceResult, error) {
	w, err := BuildSBMWorkload(e)
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{}
	cfg := infer.Config{K: e.InferK, MaxIter: e.MaxIter, Seed: e.Seed + 1}

	_, seqTr, err := infer.Sequential(w.Train, e.N, cfg)
	if err != nil {
		return nil, err
	}
	res.Sequential = seqTr.LogLik

	_, hogTr, err := infer.Hogwild(w.Train, e.N, infer.Config{
		K: e.InferK, Seed: e.Seed + 1,
	}, infer.HogwildOptions{Workers: e.Workers, Epochs: e.MaxIter, LearnRate: 0.02})
	if err != nil {
		return nil, err
	}
	res.Hogwild = hogTr.LogLik

	// Hierarchical needs a partition; use the pipeline's standard one.
	g, err := cooccur.Build(w.Train, e.N, cooccur.Options{})
	if err != nil {
		return nil, err
	}
	part := slpa.Detect(g, slpa.Options{}, xrand.New(e.Seed^0x51a9))
	_, hierTr, err := infer.Hierarchical(w.Train, e.N, part, cfg, infer.ParallelOptions{Workers: e.Workers})
	if err != nil {
		return nil, err
	}
	for _, lv := range hierTr.Levels {
		res.Hierarchical = append(res.Hierarchical, lv.LogLik)
		res.HierLevels = append(res.HierLevels, lv.Communities)
	}
	return res, nil
}

// Render draws the seeded trajectories, sequential and hierarchical, on
// one grid (epoch index on x; the hierarchical series is indexed by
// level). Hogwild's depends on thread interleaving and is left out.
func (r *ConvergenceResult) Render() string {
	var b strings.Builder
	b.WriteString("Convergence — full-data log-likelihood trajectories\n")
	var series []report.Series
	toPoints := func(xs []float64) []report.Point {
		pts := make([]report.Point, len(xs))
		for i, v := range xs {
			pts[i] = report.Point{X: float64(i), Y: v}
		}
		return pts
	}
	if len(r.Sequential) > 0 {
		series = append(series, report.Series{Name: "sequential (per epoch)", Points: toPoints(r.Sequential)})
	}
	if len(r.Hierarchical) > 0 {
		series = append(series, report.Series{Name: "hierarchical (per level)", Points: toPoints(r.Hierarchical)})
	}
	b.WriteString(report.ASCIILines(series, 60, 14))
	rows := make([][]string, 0, len(r.Hierarchical))
	for i, ll := range r.Hierarchical {
		rows = append(rows, []string{
			report.FormatFloat(float64(r.HierLevels[i]), 0),
			report.FormatFloat(ll, 1),
		})
	}
	b.WriteString("\nhierarchical per-level likelihood:\n")
	b.WriteString(report.Table([]string{"communities", "loglik"}, rows))
	return b.String()
}
