package experiments

import (
	"strings"

	"viralcast/internal/infer"
	"viralcast/internal/report"
)

// RenderConvergence backs the paper's §I claim that "the
// block-coordinate stochastic gradient descent algorithm converges very
// fast in practice": it draws the seeded trajectories of the optimizer
// comparison's fits on one grid — the objective per epoch of the flat
// fits, the full-data log-likelihood per level of the hierarchical one
// (epoch or level index on x) — and tabulates the hierarchical levels.
// Hogwild's depends on thread interleaving and is left out.
func RenderConvergence(rows []OptimizerComparison) string {
	var b strings.Builder
	b.WriteString("Convergence — full-data log-likelihood trajectories\n")
	var series []report.Series
	var levels []infer.LevelStats
	for _, r := range rows {
		if r.Racy {
			continue
		}
		var pts []report.Point
		name := r.Name + " (per epoch)"
		if len(r.Trace.Levels) > 0 {
			levels, name = r.Trace.Levels, r.Name+" (per level)"
			for i, lv := range levels {
				pts = append(pts, report.Point{X: float64(i), Y: lv.LogLik})
			}
		} else {
			for i, ll := range r.Trace.LogLik {
				pts = append(pts, report.Point{X: float64(i), Y: ll})
			}
		}
		series = append(series, report.Series{Name: name, Points: pts})
	}
	b.WriteString(report.ASCIILines(series, 60, 14))
	table := make([][]string, len(levels))
	for i, lv := range levels {
		table[i] = []string{report.FormatFloat(float64(lv.Communities), 0), report.FormatFloat(lv.LogLik, 1)}
	}
	b.WriteString("\nhierarchical per-level likelihood:\n")
	b.WriteString(report.Table([]string{"communities", "loglik"}, table))
	return b.String()
}
