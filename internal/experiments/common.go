// Package experiments contains one harness per figure of the paper's
// evaluation (Figures 1-3 measure the news-event corpus; Figures 6-9 the
// SBM prediction study; Figures 10, 11 and 13 the parallel scalability;
// Figure 12 the GDELT prediction study), plus the ablations DESIGN.md
// commits to. Each harness returns a typed result that can be rendered
// as text (for the cmd/figures binary) or emitted as CSV series.
package experiments

import (
	"fmt"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/embed"
	"viralcast/internal/eval"
	"viralcast/internal/features"
	"viralcast/internal/infer"
	"viralcast/internal/svm"
	"viralcast/internal/workload"
	"viralcast/internal/xrand"
)

// SBMExperiment configures the synthetic-network study shared by
// Figures 6-11 and 13: the workload draw (§VI-A defaults) plus what the
// lab does with it — the first Train of the 3,000 cascades fit the
// embeddings; the rest are test cascades whose first 2/7 of the
// observation window is visible to the predictor.
type SBMExperiment struct {
	workload.Config
	Train     int     // first Train cascades fit the embeddings
	EarlyFrac float64 // fraction of the window visible to the predictor
	// Inference settings.
	InferK  int
	MaxIter int
	Workers int
}

// DefaultSBM returns the paper-scale configuration.
func DefaultSBM() SBMExperiment {
	return SBMExperiment{
		Config:    workload.Default(),
		Train:     2000,
		EarlyFrac: 2.0 / 7.0,
		InferK:    4,
		MaxIter:   30,
		Workers:   4,
	}
}

// Validate rejects unusable configurations.
func (e SBMExperiment) Validate() error {
	if err := e.Config.Validate(); err != nil {
		return err
	}
	if e.Train <= 0 || e.Train >= e.Cascades {
		return fmt.Errorf("experiments: need 0 < Train < Cascades, got %d / %d", e.Train, e.Cascades)
	}
	if e.InferK <= 0 || e.EarlyFrac <= 0 || e.EarlyFrac >= 1 {
		return fmt.Errorf("experiments: bad InferK %d / early fraction %v", e.InferK, e.EarlyFrac)
	}
	return nil
}

// SBMWorkload is a materialized draw split into train/test.
type SBMWorkload struct {
	Exp SBMExperiment
	*workload.Draw
	Train []*cascade.Cascade
	Test  []*cascade.Cascade
}

// EarlyCutoff returns the prediction horizon: EarlyFrac of the window.
func (w *SBMWorkload) EarlyCutoff() float64 { return w.Exp.Window * w.Exp.EarlyFrac }

// BuildSBMWorkload draws the workload and splits its cascades.
func BuildSBMWorkload(e SBMExperiment) (*SBMWorkload, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	d, err := workload.Build(e.Config)
	if err != nil {
		return nil, err
	}
	return &SBMWorkload{Exp: e, Draw: d, Train: d.Cascades[:e.Train], Test: d.Cascades[e.Train:]}, nil
}

// FitEmbeddings fits the training cascades as the product does:
// core.Train (co-occurrence graph, SLPA, hierarchical parallel EM).
func (w *SBMWorkload) FitEmbeddings() (*embed.Model, *infer.Trace, error) {
	return w.fit(w.Train, w.Exp.InferK)
}

// fit is core.Train on cs over the workload's nodes at topic dimension
// k, with the experiment's MaxIter, Workers and seed.
func (w *SBMWorkload) fit(cs []*cascade.Cascade, k int) (*embed.Model, *infer.Trace, error) {
	sys, err := core.Train(cs, w.Exp.N, core.TrainConfig{
		Topics: k, MaxIter: w.Exp.MaxIter, Workers: w.Exp.Workers, Seed: w.Exp.Seed + 1,
	})
	if err != nil {
		return nil, nil, err
	}
	return sys.Embeddings, sys.Trace, nil
}

// PredictionData extracts the early-adopter features and final sizes of
// the test cascades under the fitted model.
func (w *SBMWorkload) PredictionData(m *embed.Model) ([]features.Set, []int, error) {
	return features.ExtractAll(m, w.Test, w.EarlyCutoff())
}

// PredictionDataAt is PredictionData with an explicit early horizon,
// used by the early-window sweep.
func (w *SBMWorkload) PredictionDataAt(m *embed.Model, cutoff float64) ([]features.Set, []int, error) {
	return features.ExtractAll(m, w.Test, cutoff)
}

// Classification is the paper's virality classification at one size
// threshold: the confusion matrix of the pooled out-of-fold margins'
// signs (a margin >= 0 calls a cascade viral, as core.Predictor does)
// and the AUC of the same margins.
type Classification struct {
	eval.Confusion
	AUC float64
}

// Classify cross-validates, at one size threshold, the classifier
// core.TrainPredictor serves: stratified k-fold CV over the named
// features' raw rows (nil means the paper's trio diverA/normA/maxA), one
// svm.Fit per fold. F1 and AUC come from the same out-of-fold margins.
func Classify(sets []features.Set, sizes []int, threshold int, featureNames []string, folds int, seed uint64) (Classification, error) {
	x, err := designMatrix(sets, featureNames)
	if err != nil {
		return Classification{}, err
	}
	return classify(x, eval.LabelsBySizeThreshold(sizes, threshold), folds, seed)
}

// designMatrix is the classifier's input: the named features of every
// set (nil means the paper's trio), untransformed, as core.TrainPredictor
// selects them.
func designMatrix(sets []features.Set, featureNames []string) ([][]float64, error) {
	if featureNames == nil {
		featureNames = []string{"diverA", "normA", "maxA"}
	}
	x := make([][]float64, len(sets))
	for i, s := range sets {
		row, err := s.Select(featureNames)
		if err != nil {
			return nil, err
		}
		x[i] = row
	}
	return x, nil
}

// classify is Classify over an explicit design matrix and labels.
func classify(x [][]float64, y []int, folds int, seed uint64) (Classification, error) {
	pos := 0
	for _, l := range y {
		if l == 1 {
			pos++
		}
	}
	if pos == 0 || pos == len(y) {
		return Classification{}, fmt.Errorf("experiments: single-class task (%d positives of %d)", pos, len(y))
	}
	margins, err := eval.CrossValidate(x, y, folds, servedClassifier(seed), xrand.New(seed))
	if err != nil {
		return Classification{}, err
	}
	conf, err := eval.ConfuseScores(y, margins)
	if err != nil {
		return Classification{}, err
	}
	auc, err := eval.AUC(margins, y)
	if err != nil {
		return Classification{}, err
	}
	return Classification{Confusion: conf, AUC: auc}, nil
}

// servedClassifier is the lab's per-fold trainer: svm.Fit, the fit
// core.TrainPredictor runs with its system's seed, and each row's margin
// computed as core.Predictor computes it.
func servedClassifier(seed uint64) eval.Trainer {
	return func(x [][]float64, y []int) (func([]float64) float64, error) {
		std, m, err := svm.Fit(x, y, seed)
		if err != nil {
			return nil, err
		}
		return func(row []float64) float64 { return m.Decision(std.ApplyRow(nil, row)) }, nil
	}
}
