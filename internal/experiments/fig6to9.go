package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"viralcast/internal/features"
	"viralcast/internal/report"
	"viralcast/internal/stats"
)

// FeatureScatterResult reproduces Figures 6, 7 and 8: for each test
// cascade, one point per feature with the final cascade size on the y
// axis, plus the feature/size correlations that quantify the "grows
// almost linearly" claim.
type FeatureScatterResult struct {
	DiverA, NormA, MaxA []report.Point
	// Spearman rank correlations between each feature and the final size.
	CorrDiverA, CorrNormA, CorrMaxA float64
}

// Figure9Result reproduces Figure 9: the histogram of test-cascade sizes
// and the F1-measure of the virality classifier as the size threshold
// sweeps across the distribution. TopFracF1 reports the paper's headline
// number — F1 when the top 20% of cascades are labeled viral.
type Figure9Result struct {
	SizeHist   []stats.Bin
	Thresholds []int
	F1         []float64
	TopFracF1  float64
	TopFracThr int
	// TopFracAUC is the threshold-free companion metric at the top-20%
	// threshold (not in the paper; reported for completeness).
	TopFracAUC float64
}

// Figures6to9 derives all four figures from the workload's one fit.
func Figures6to9(w *SBMWorkload) (*FeatureScatterResult, *Figure9Result, error) {
	sets, sizes := w.Sets, w.Sizes
	if len(sets) == 0 {
		return nil, nil, fmt.Errorf("experiments: no test cascades usable for prediction")
	}
	scatter := &FeatureScatterResult{}
	var fDiver, fNorm, fMax, fSize []float64
	for i, s := range sets {
		y := float64(sizes[i])
		scatter.DiverA = append(scatter.DiverA, report.Point{X: s.DiverA, Y: y})
		scatter.NormA = append(scatter.NormA, report.Point{X: s.NormA, Y: y})
		scatter.MaxA = append(scatter.MaxA, report.Point{X: s.MaxA, Y: y})
		fDiver = append(fDiver, s.DiverA)
		fNorm = append(fNorm, s.NormA)
		fMax = append(fMax, s.MaxA)
		fSize = append(fSize, y)
	}
	scatter.CorrDiverA = stats.Spearman(fDiver, fSize)
	scatter.CorrNormA = stats.Spearman(fNorm, fSize)
	scatter.CorrMaxA = stats.Spearman(fMax, fSize)

	// Figure 9 (paper: "We use different number of nodes as the threshold
	// for the binary classification and plot the F1-measure").
	fig9 := &Figure9Result{TopFracThr: w.Threshold}
	var err error
	if fig9.SizeHist, err = histogramOfSizes(sizes, 15); err != nil {
		return nil, nil, err
	}
	if fig9.Thresholds, fig9.F1, err = thresholdGrid(sets, sizes, w.cvSeed()); err != nil {
		return nil, nil, err
	}
	top, err := w.Score(nil)
	if err != nil {
		return nil, nil, err
	}
	fig9.TopFracF1, fig9.TopFracAUC = top.F1(), top.AUC
	return scatter, fig9, nil
}

// thresholdGrid classifies the trio task at each decile of the size
// distribution from the 30th to the 95th percentile (deduplicated, sizes
// below 2 left out) and returns the thresholds scored and their F1. A
// threshold that leaves one class is skipped; any other failure is
// returned.
func thresholdGrid(sets []features.Set, sizes []int, seed uint64) ([]int, []float64, error) {
	sorted := slices.Clone(sizes)
	slices.Sort(sorted)
	var thresholds []int
	var f1 []float64
	for _, q := range []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95} {
		th := sorted[int(q*float64(len(sorted)-1))]
		if th < 2 || slices.Contains(thresholds, th) {
			continue
		}
		cl, err := Classify(sets, sizes, th, nil, 10, seed)
		if errors.Is(err, errSingleClass) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		thresholds = append(thresholds, th)
		f1 = append(f1, cl.F1())
	}
	if len(thresholds) == 0 {
		return nil, nil, fmt.Errorf("experiments: no usable thresholds (size distribution too degenerate)")
	}
	return thresholds, f1, nil
}

func histogramOfSizes(sizes []int, bins int) ([]stats.Bin, error) {
	xs := make([]float64, len(sizes))
	for i, s := range sizes {
		xs[i] = float64(s)
	}
	return stats.Histogram(xs, bins)
}

// Render gives the terminal rendition of Figures 6-8.
func (r *FeatureScatterResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6 — diverA of early adopters vs final cascade size\n")
	b.WriteString(report.ASCIIScatter(r.DiverA, 60, 14))
	fmt.Fprintf(&b, "Spearman(diverA, size) = %.3f\n\n", r.CorrDiverA)
	b.WriteString("Figure 7 — normA of early adopters vs final cascade size\n")
	b.WriteString(report.ASCIIScatter(r.NormA, 60, 14))
	fmt.Fprintf(&b, "Spearman(normA, size) = %.3f\n\n", r.CorrNormA)
	b.WriteString("Figure 8 — maxA of early adopters vs final cascade size\n")
	b.WriteString(report.ASCIIScatter(r.MaxA, 60, 14))
	fmt.Fprintf(&b, "Spearman(maxA, size) = %.3f\n", r.CorrMaxA)
	return b.String()
}

// CSV emits the scatter series (one row per test cascade).
func (r *FeatureScatterResult) CSV() ([]string, [][]float64) {
	header := []string{"diverA", "normA", "maxA", "finalSize"}
	rows := make([][]float64, len(r.DiverA))
	for i := range r.DiverA {
		rows[i] = []float64{r.DiverA[i].X, r.NormA[i].X, r.MaxA[i].X, r.DiverA[i].Y}
	}
	return header, rows
}

// Render gives the terminal rendition of Figure 9.
func (r *Figure9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9 — cascade-size histogram and prediction F1 vs threshold\n")
	labels := make([]string, len(r.SizeHist))
	counts := make([]int, len(r.SizeHist))
	for i, bin := range r.SizeHist {
		labels[i] = fmt.Sprintf("%4.0f-%4.0f", bin.Lo, bin.Hi)
		counts[i] = bin.Count
	}
	b.WriteString(report.ASCIIHistogram(labels, counts, 40))
	b.WriteString("\nthreshold  F1\n")
	for i, th := range r.Thresholds {
		fmt.Fprintf(&b, "%9d  %.3f\n", th, r.F1[i])
	}
	fmt.Fprintf(&b, "\nTop-20%% task: threshold=%d F1=%.3f AUC=%.3f (paper reports F1~0.80)\n",
		r.TopFracThr, r.TopFracF1, r.TopFracAUC)
	return b.String()
}

// CSV emits the F1-vs-threshold series.
func (r *Figure9Result) CSV() ([]string, [][]float64) {
	header := []string{"threshold", "f1"}
	rows := make([][]float64, len(r.Thresholds))
	for i := range r.Thresholds {
		rows[i] = []float64{float64(r.Thresholds[i]), r.F1[i]}
	}
	return header, rows
}
