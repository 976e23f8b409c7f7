// Package eval provides the classification metrics and cross-validation
// machinery the paper uses to score virality prediction: F1-measure on a
// binary size-threshold task under 10-fold cross-validation (§VI-A).
package eval

import (
	"fmt"
	"sort"
)

// Shuffler is the only randomness the fold machinery needs; *xrand.RNG
// satisfies it.
type Shuffler interface {
	Shuffle(n int, swap func(i, j int))
}

// Confusion is a binary confusion matrix; the positive class is +1.
type Confusion struct {
	TP, FP, TN, FN int
}

// Confuse tallies predictions against truth (labels must be +1/-1).
func Confuse(truth, pred []int) (Confusion, error) {
	if len(truth) != len(pred) {
		return Confusion{}, fmt.Errorf("eval: %d truths vs %d predictions", len(truth), len(pred))
	}
	var c Confusion
	for i := range truth {
		switch {
		case truth[i] == 1 && pred[i] == 1:
			c.TP++
		case truth[i] == -1 && pred[i] == 1:
			c.FP++
		case truth[i] == -1 && pred[i] == -1:
			c.TN++
		case truth[i] == 1 && pred[i] == -1:
			c.FN++
		default:
			return Confusion{}, fmt.Errorf("eval: labels must be +1/-1, got truth=%d pred=%d", truth[i], pred[i])
		}
	}
	return c, nil
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when
// undefined.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns the fraction of correct predictions.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// StratifiedKFold splits sample indices into k folds that each preserve
// the overall +1/-1 class balance as closely as possible. The virality
// task is heavily imbalanced at high thresholds, so plain random folds
// can end up with no positives at all.
func StratifiedKFold(y []int, k int, rng Shuffler) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: k must be >= 2, got %d", k)
	}
	if len(y) < k {
		return nil, fmt.Errorf("eval: %d samples cannot fill %d folds", len(y), k)
	}
	var pos, neg []int
	for i, label := range y {
		switch label {
		case 1:
			pos = append(pos, i)
		case -1:
			neg = append(neg, i)
		default:
			return nil, fmt.Errorf("eval: label at %d is %d, want +1/-1", i, label)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	folds := make([][]int, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds, nil
}

// ConfuseScores tallies real-valued scores against truth, a score >= 0
// predicting +1 (the sign rule of svm.Model.Predict).
func ConfuseScores(truth []int, scores []float64) (Confusion, error) {
	pred := make([]int, len(scores))
	for i, s := range scores {
		pred[i] = -1
		if s >= 0 {
			pred[i] = 1
		}
	}
	return Confuse(truth, pred)
}

// Trainer is any fold-trainable classifier factory: given training
// features and labels it returns a real-valued scorer over feature rows.
type Trainer func(x [][]float64, y []int) (func([]float64) float64, error)

// CrossValidate runs stratified k-fold cross-validation and returns
// every sample's out-of-fold score: scores[i] comes from the model
// trained on the folds that do not hold sample i. Pooled over all folds
// (micro-averaged, the standard way to report F1 on imbalanced data),
// the scores give both the confusion matrix (ConfuseScores) and the AUC.
func CrossValidate(x [][]float64, y []int, k int, train Trainer, rng Shuffler) ([]float64, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("eval: %d samples vs %d labels", len(x), len(y))
	}
	folds, err := StratifiedKFold(y, k, rng)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(x))
	for fi, test := range folds {
		if len(test) == 0 {
			continue
		}
		inTest := make(map[int]bool, len(test))
		for _, i := range test {
			inTest[i] = true
		}
		var trX [][]float64
		var trY []int
		for i := range x {
			if !inTest[i] {
				trX = append(trX, x[i])
				trY = append(trY, y[i])
			}
		}
		if len(trX) == 0 {
			return nil, fmt.Errorf("eval: fold %d leaves no sample to train on", fi)
		}
		score, err := train(trX, trY)
		if err != nil {
			return nil, fmt.Errorf("eval: fold %d training failed: %w", fi, err)
		}
		for _, i := range test {
			scores[i] = score(x[i])
		}
	}
	return scores, nil
}

// LabelsBySizeThreshold converts cascade sizes to +1 (size >= threshold,
// "viral") / -1 labels — the binary formulation of §VI-A.
func LabelsBySizeThreshold(sizes []int, threshold int) []int {
	out := make([]int, len(sizes))
	for i, s := range sizes {
		if s >= threshold {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// TopFractionThreshold returns the size threshold that marks the top
// `frac` fraction of cascades as viral (e.g. 0.2 for the paper's
// "top 20%" headline task). Sizes are not modified.
func TopFractionThreshold(sizes []int, frac float64) int {
	if len(sizes) == 0 || frac <= 0 {
		return int(^uint(0) >> 1) // max int: nothing is viral
	}
	if frac >= 1 {
		return 0
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	idx := int(float64(len(sorted)) * (1 - frac))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
