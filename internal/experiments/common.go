// Package experiments contains one harness per figure of the paper's
// evaluation (Figures 1-3 measure the news-event corpus; Figures 6-9 the
// SBM prediction study; Figures 10, 11 and 13 the parallel scalability;
// Figure 12 the GDELT prediction study), plus the ablations DESIGN.md
// commits to. Each harness returns a typed result that can be rendered
// as text (for the cmd/figures binary) or emitted as CSV series.
package experiments

import (
	"fmt"
	"math"

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

// logFeatures is the classifiers' design matrix: the named features
// (nil means the paper's trio diverA/normA/maxA) of every set, log
// transformed — influence features are heavy-tailed (super-spreader
// magnitudes), and the log keeps the linear margin from being dominated
// by a handful of outliers.
func logFeatures(sets []features.Set, featureNames []string) ([][]float64, error) {
	if featureNames == nil {
		featureNames = []string{"diverA", "normA", "maxA"}
	}
	x := make([][]float64, len(sets))
	for i, s := range sets {
		row, err := s.Select(featureNames)
		if err != nil {
			return nil, err
		}
		for j, v := range row {
			row[j] = math.Log1p(v)
		}
		x[i] = row
	}
	return x, nil
}

// PredictF1 runs the paper's virality classification at one size
// threshold: standardized features, linear SVM, stratified k-fold CV,
// pooled F1. featureNames selects which features feed the classifier
// (nil means the paper's trio diverA/normA/maxA).
func PredictF1(sets []features.Set, sizes []int, threshold int, featureNames []string, folds int, seed uint64) (eval.Confusion, error) {
	x, err := logFeatures(sets, featureNames)
	if err != nil {
		return eval.Confusion{}, err
	}
	y := eval.LabelsBySizeThreshold(sizes, threshold)
	pos := 0
	for _, l := range y {
		if l == 1 {
			pos++
		}
	}
	if pos == 0 || pos == len(y) {
		return eval.Confusion{}, fmt.Errorf("experiments: threshold %d gives a single-class task (%d positives of %d)", threshold, pos, len(y))
	}
	trainer := func(trX [][]float64, trY []int) (func([]float64) int, error) {
		std, err := svm.FitStandardizer(trX)
		if err != nil {
			return nil, err
		}
		model, err := svm.TrainBestF1(std.Apply(trX), trY,
			svm.Options{Seed: seed, Epochs: 60}, nil, xrand.New(seed^0xf1))
		if err != nil {
			return nil, err
		}
		return func(row []float64) int {
			return model.Predict(std.Apply([][]float64{row})[0])
		}, nil
	}
	return eval.CrossValidate(x, y, folds, trainer, xrand.New(seed))
}

// PredictAUC is the threshold-free companion of PredictF1: the pooled
// cross-validated area under the ROC curve of the SVM decision value at
// one size threshold.
func PredictAUC(sets []features.Set, sizes []int, threshold int, featureNames []string, folds int, seed uint64) (float64, error) {
	x, err := logFeatures(sets, featureNames)
	if err != nil {
		return 0, err
	}
	y := eval.LabelsBySizeThreshold(sizes, threshold)
	trainer := func(trX [][]float64, trY []int) (func([]float64) float64, error) {
		std, err := svm.FitStandardizer(trX)
		if err != nil {
			return nil, err
		}
		model, err := svm.Train(std.Apply(trX), trY,
			svm.Options{Seed: seed, Epochs: 60, AutoBalance: true})
		if err != nil {
			return nil, err
		}
		return func(row []float64) float64 {
			return model.Decision(std.Apply([][]float64{row})[0])
		}, nil
	}
	return eval.CrossValidateAUC(x, y, folds, trainer, xrand.New(seed))
}
