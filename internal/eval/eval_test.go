package eval

import (
	"math"
	"testing"

	"viralcast/internal/svm"
	"viralcast/internal/xrand"
)

func TestConfuse(t *testing.T) {
	truth := []int{1, 1, -1, -1, 1}
	pred := []int{1, -1, -1, 1, 1}
	c, err := Confuse(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 2 || c.FN != 1 || c.TN != 1 || c.FP != 1 {
		t.Fatalf("Confusion = %+v", c)
	}
	if _, err := Confuse([]int{1}, []int{1, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Confuse([]int{0}, []int{1}); err == nil {
		t.Error("bad label accepted")
	}
}

func TestMetrics(t *testing.T) {
	c := Confusion{TP: 6, FP: 2, TN: 10, FN: 2}
	if p := c.Precision(); math.Abs(p-0.75) > 1e-12 {
		t.Errorf("Precision = %v", p)
	}
	if r := c.Recall(); math.Abs(r-0.75) > 1e-12 {
		t.Errorf("Recall = %v", r)
	}
	if f := c.F1(); math.Abs(f-0.75) > 1e-12 {
		t.Errorf("F1 = %v", f)
	}
	if a := c.Accuracy(); math.Abs(a-0.8) > 1e-12 {
		t.Errorf("Accuracy = %v", a)
	}
}

func TestMetricsDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Error("degenerate confusion must give all-zero metrics")
	}
	onlyNeg := Confusion{TN: 10}
	if onlyNeg.F1() != 0 {
		t.Error("no positives: F1 must be 0")
	}
}

func TestStratifiedKFold(t *testing.T) {
	// 20 positives, 80 negatives, 10 folds: each fold should hold exactly
	// 2 positives and 8 negatives.
	y := make([]int, 100)
	for i := range y {
		if i < 20 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	folds, err := StratifiedKFold(y, 10, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("fold count = %d", len(folds))
	}
	seen := map[int]bool{}
	for fi, fold := range folds {
		pos := 0
		for _, i := range fold {
			if seen[i] {
				t.Fatalf("index %d in two folds", i)
			}
			seen[i] = true
			if y[i] == 1 {
				pos++
			}
		}
		if pos != 2 {
			t.Errorf("fold %d has %d positives, want 2", fi, pos)
		}
		if len(fold) != 10 {
			t.Errorf("fold %d size %d, want 10", fi, len(fold))
		}
	}
	if len(seen) != 100 {
		t.Fatalf("folds cover %d indices, want 100", len(seen))
	}
}

func TestStratifiedKFoldErrors(t *testing.T) {
	if _, err := StratifiedKFold([]int{1, -1}, 1, xrand.New(1)); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := StratifiedKFold([]int{1}, 2, xrand.New(1)); err == nil {
		t.Error("fewer samples than folds accepted")
	}
	if _, err := StratifiedKFold([]int{1, 0, -1}, 2, xrand.New(1)); err == nil {
		t.Error("bad label accepted")
	}
}

// svmTrainer is the classifier the product serves (svm.Fit), scored by
// its margin as core.Predictor scores a row.
func svmTrainer(seed uint64) Trainer {
	return func(x [][]float64, y []int) (func([]float64) float64, error) {
		std, m, err := svm.Fit(x, y, seed)
		if err != nil {
			return nil, err
		}
		return func(row []float64) float64 { return m.Decision(std.ApplyRow(nil, row)) }, nil
	}
}

func TestCrossValidateWithSVM(t *testing.T) {
	// Separable 1-D task: CV F1 should be near 1.
	rng := xrand.New(2)
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		if i%4 == 0 {
			x = append(x, []float64{1 + rng.Norm(0, 0.2)})
			y = append(y, 1)
		} else {
			x = append(x, []float64{-1 + rng.Norm(0, 0.2)})
			y = append(y, -1)
		}
	}
	scores, err := CrossValidate(x, y, 10, svmTrainer(3), xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ConfuseScores(y, scores)
	if err != nil {
		t.Fatal(err)
	}
	if f1 := c.F1(); f1 < 0.95 {
		t.Fatalf("CV F1 = %v on separable data (%+v)", f1, c)
	}
	total := c.TP + c.FP + c.TN + c.FN
	if total != 200 {
		t.Fatalf("pooled confusion covers %d samples, want 200", total)
	}
	// The same out-of-fold margins rank the classes for the AUC.
	if auc, err := AUC(scores, y); err != nil || auc < 0.99 {
		t.Fatalf("CV AUC = %v (%v) on separable data", auc, err)
	}
}

func TestCrossValidateRandomLabelsPoor(t *testing.T) {
	// Features carry no signal: F1 should be mediocre, proving CV does
	// not leak training data into evaluation.
	rng := xrand.New(5)
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		x = append(x, []float64{rng.Norm(0, 1)})
		if rng.Bernoulli(0.5) {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	scores, err := CrossValidate(x, y, 5, svmTrainer(6), xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ConfuseScores(y, scores)
	if err != nil {
		t.Fatal(err)
	}
	if f1 := c.F1(); f1 > 0.75 {
		t.Fatalf("CV F1 = %v on pure noise — evaluation is leaking", f1)
	}
}

func TestLabelsBySizeThreshold(t *testing.T) {
	labels := LabelsBySizeThreshold([]int{1, 5, 10}, 5)
	want := []int{-1, 1, 1}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v", labels)
		}
	}
}

func TestTopFractionThreshold(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	th := TopFractionThreshold(sizes, 0.2)
	// Top 20% = sizes {9, 10}: threshold 9.
	if th != 9 {
		t.Fatalf("threshold = %d, want 9", th)
	}
	labels := LabelsBySizeThreshold(sizes, th)
	pos := 0
	for _, l := range labels {
		if l == 1 {
			pos++
		}
	}
	if pos != 2 {
		t.Fatalf("top-20%% marks %d of 10", pos)
	}
	if TopFractionThreshold(nil, 0.2) <= 1000000 {
		t.Error("empty sizes must yield unreachable threshold")
	}
	if TopFractionThreshold(sizes, 1.5) != 0 {
		t.Error("frac >= 1 must mark everything viral")
	}
}
