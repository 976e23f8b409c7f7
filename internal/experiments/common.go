// Package experiments contains one harness per figure of the paper's
// evaluation (Figures 1-3 measure the news-event corpus; Figures 6-9 the
// SBM prediction study; Figures 10, 11 and 13 the parallel scalability;
// Figure 12 the GDELT prediction study), plus the ablations DESIGN.md
// commits to. Each harness returns a typed result that can be rendered
// as text (for the cmd/figures binary) or emitted as CSV series.
package experiments

import (
	"errors"
	"fmt"
	"time"

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

// SBMWorkload is one materialized draw of an SBMExperiment, split into
// train/test, together with everything the lab's tables read of it: the
// one core.Train fit of the training cascades and the test cascades'
// early-adopter features at the workload's horizon. Every Classify on
// the workload uses its one CV seed, so a task that repeats across
// tables prints one score.
type SBMWorkload struct {
	Exp SBMExperiment
	*workload.Draw
	Train []*cascade.Cascade
	Test  []*cascade.Cascade
	// Fit is core.Train on Train: the embeddings, the SLPA partition and
	// the per-level trace of the one hierarchical fit.
	Fit *core.System
	// FitSeconds is the wall time of that core.Train call: co-occurrence,
	// SLPA and Algorithm 2 (Fit.Trace.Elapsed covers only the last).
	FitSeconds float64
	// Sets and Sizes are the usable test cascades' early-adopter
	// features at EarlyCutoff under Fit's embeddings, and their final
	// sizes; Threshold is the top-20 % size threshold over Sizes.
	Sets      []features.Set
	Sizes     []int
	Threshold int
}

// trioFeatures is the paper's feature trio, the classifier's default.
var trioFeatures = []string{"diverA", "normA", "maxA"}

// EarlyCutoff returns the prediction horizon: EarlyFrac of the window.
func (w *SBMWorkload) EarlyCutoff() float64 { return w.Exp.Window * w.Exp.EarlyFrac }

// cvSeed is the workload's one cross-validation seed.
func (w *SBMWorkload) cvSeed() uint64 { return w.Exp.Seed + 7 }

// BuildSBMWorkload draws the workload, splits its cascades, fits the
// training cascades with core.Train and extracts the test features.
func BuildSBMWorkload(e SBMExperiment) (*SBMWorkload, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	d, err := workload.Build(e.Config)
	if err != nil {
		return nil, err
	}
	w := &SBMWorkload{Exp: e, Draw: d, Train: d.Cascades[:e.Train], Test: d.Cascades[e.Train:]}
	start := time.Now()
	if w.Fit, err = w.train(w.Train, e.InferK); err != nil {
		return nil, err
	}
	w.FitSeconds = time.Since(start).Seconds()
	if w.Sets, w.Sizes, err = w.PredictionData(w.Fit.Embeddings); err != nil {
		return nil, err
	}
	w.Threshold = eval.TopFractionThreshold(w.Sizes, 0.2)
	return w, nil
}

// train is core.Train on cs over the workload's nodes at topic dimension
// k, with the experiment's MaxIter, Workers and seed.
func (w *SBMWorkload) train(cs []*cascade.Cascade, k int) (*core.System, error) {
	return core.Train(cs, w.Exp.N, core.TrainConfig{
		Topics: k, MaxIter: w.Exp.MaxIter, Workers: w.Exp.Workers, Seed: w.Exp.Seed + 1,
	})
}

// inferConfig is the infer.Config the workload's core.Train fit runs
// Algorithm 2 with, for the optimizers and partitions it is compared
// against.
func (w *SBMWorkload) inferConfig() infer.Config {
	return infer.Config{K: w.Exp.InferK, MaxIter: w.Exp.MaxIter, Seed: w.Exp.Seed + 1}
}

// PredictionData extracts the early-adopter features and final sizes of
// the test cascades under the fitted model.
func (w *SBMWorkload) PredictionData(m *embed.Model) ([]features.Set, []int, error) {
	return features.ExtractAll(m, w.Test, w.EarlyCutoff())
}

// Score classifies the workload's top-20 % task at its horizon on the
// named features (nil means the trio) under the workload's CV seed.
func (w *SBMWorkload) Score(featureNames []string) (Classification, error) {
	return Classify(w.Sets, w.Sizes, w.Threshold, featureNames, 10, w.cvSeed())
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
		featureNames = trioFeatures
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

// errSingleClass is classify's error for a task whose labels are all one
// class: the one failure a threshold grid skips.
var errSingleClass = errors.New("experiments: single-class task")

// classify is Classify over an explicit design matrix and labels.
func classify(x [][]float64, y []int, folds int, seed uint64) (Classification, error) {
	pos := 0
	for _, l := range y {
		if l == 1 {
			pos++
		}
	}
	if pos == 0 || pos == len(y) {
		return Classification{}, fmt.Errorf("%w (%d positives of %d)", errSingleClass, pos, len(y))
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
