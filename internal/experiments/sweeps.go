package experiments

import (
	"fmt"
	"strings"

	"viralcast/internal/cascade"
	"viralcast/internal/eval"
	"viralcast/internal/features"
	"viralcast/internal/report"
)

// EarlyWindowSweep answers the deployment question the paper's fixed
// 2/7 horizon leaves open: how does prediction quality change with how
// long we wait before predicting? The workload's one fit is scored as
// the early-adopter horizon sweeps across the observation window.
type EarlyWindowSweep struct {
	Fractions []float64
	F1        []float64
	Accuracy  []float64
	// Coverage is the fraction of test cascades with at least one
	// infection besides the seed by each horizon: the ones whose early
	// features see more than the seed's own report.
	Coverage []float64
}

// SweepEarlyWindow evaluates the top-20% task on the workload's fit at
// several horizons under the workload's CV seed.
func SweepEarlyWindow(w *SBMWorkload, fractions []float64) (*EarlyWindowSweep, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.05, 0.1, 0.2, 2.0 / 7.0, 0.4, 0.6}
	}
	out := &EarlyWindowSweep{}
	for _, frac := range fractions {
		if frac <= 0 || frac >= 1 {
			return nil, fmt.Errorf("experiments: early fraction %v out of (0,1)", frac)
		}
		cutoff := w.Exp.Window * frac
		sets, sizes, err := features.ExtractAll(w.Fit.Embeddings, w.Test, cutoff)
		if err != nil {
			return nil, err
		}
		seen := 0
		for _, c := range w.Test {
			if c.Prefix(cutoff).Size() >= 2 {
				seen++
			}
		}
		cl, err := Classify(sets, sizes, eval.TopFractionThreshold(sizes, 0.2), nil, 10, w.cvSeed())
		if err != nil {
			return nil, err
		}
		out.Fractions = append(out.Fractions, frac)
		out.F1 = append(out.F1, cl.F1())
		out.Accuracy = append(out.Accuracy, cl.Accuracy())
		out.Coverage = append(out.Coverage, float64(seen)/float64(len(w.Test)))
	}
	return out, nil
}

// Render renders the early-window sweep.
func (r *EarlyWindowSweep) Render() string {
	var b strings.Builder
	b.WriteString("Sweep — prediction quality vs early-observation horizon (top-20% task)\n")
	rows := make([][]string, len(r.Fractions))
	for i := range r.Fractions {
		rows[i] = []string{
			report.FormatFloat(r.Fractions[i], 3),
			report.FormatFloat(r.F1[i], 3),
			report.FormatFloat(r.Accuracy[i], 3),
			report.FormatFloat(r.Coverage[i], 3),
		}
	}
	b.WriteString(report.Table([]string{"window-frac", "F1", "accuracy", "coverage"}, rows))
	return b.String()
}

// SampleComplexity traces how inference quality grows with the number of
// training cascades — the MLE-consistency view. Quality is measured as
// held-out log-likelihood per infection (higher is better), which is
// comparable across training-set sizes.
type SampleComplexity struct {
	TrainSizes          []int
	HeldOutPerInfection []float64
}

// SweepTrainingSize fits the model on nested prefixes of the training
// cascades and scores each on the same held-out set; the full training
// set is the workload's own fit.
func SweepTrainingSize(w *SBMWorkload, trainSizes []int) (*SampleComplexity, error) {
	if len(trainSizes) == 0 {
		trainSizes = []int{100, 200, 400, 800, 1600}
	}
	testInfections := cascade.TotalInfections(w.Test)
	if testInfections == 0 {
		return nil, fmt.Errorf("experiments: empty held-out set")
	}
	out := &SampleComplexity{}
	for _, sz := range trainSizes {
		if sz < 10 || sz > len(w.Train) {
			continue
		}
		m := w.Fit.Embeddings
		if sz < len(w.Train) {
			sys, err := w.train(w.Train[:sz], w.Exp.InferK)
			if err != nil {
				return nil, err
			}
			m = sys.Embeddings
		}
		out.TrainSizes = append(out.TrainSizes, sz)
		out.HeldOutPerInfection = append(out.HeldOutPerInfection,
			m.LogLikAll(w.Test)/float64(testInfections))
	}
	if len(out.TrainSizes) == 0 {
		return nil, fmt.Errorf("experiments: no usable training sizes")
	}
	return out, nil
}

// Render renders the sample-complexity curve.
func (r *SampleComplexity) Render() string {
	var b strings.Builder
	b.WriteString("Sweep — held-out log-likelihood per infection vs training cascades\n")
	rows := make([][]string, len(r.TrainSizes))
	for i := range r.TrainSizes {
		rows[i] = []string{
			fmt.Sprintf("%d", r.TrainSizes[i]),
			report.FormatFloat(r.HeldOutPerInfection[i], 4),
		}
	}
	b.WriteString(report.Table([]string{"train-cascades", "heldout-ll/infection"}, rows))
	return b.String()
}
