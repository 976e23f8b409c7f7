package eval

import (
	"math"
	"testing"

	"viralcast/internal/xrand"
)

func TestAUCPerfect(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int{-1, -1, 1, 1}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	// Inverted scores: AUC 0.
	inv := []float64{0.9, 0.8, 0.2, 0.1}
	auc, err = AUC(inv, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0 {
		t.Fatalf("inverted AUC = %v", auc)
	}
}

func TestAUCTiesCountHalf(t *testing.T) {
	// All scores equal: AUC must be exactly 0.5.
	scores := []float64{1, 1, 1, 1}
	labels := []int{1, -1, 1, -1}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("tied AUC = %v, want 0.5", auc)
	}
}

func TestAUCHandComputed(t *testing.T) {
	// pos scores {3, 1}, neg scores {2, 0}: pairs (3>2, 3>0, 1<2, 1>0)
	// -> 3 of 4 -> 0.75.
	scores := []float64{3, 1, 2, 0}
	labels := []int{1, 1, -1, -1}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.75) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.75", auc)
	}
}

func TestAUCErrors(t *testing.T) {
	if _, err := AUC([]float64{1}, []int{1, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := AUC([]float64{1, 2}, []int{1, 0}); err == nil {
		t.Error("bad label accepted")
	}
	if _, err := AUC([]float64{1, 2}, []int{1, 1}); err == nil {
		t.Error("single-class accepted")
	}
}

func TestAUCRandomScoresNearHalf(t *testing.T) {
	rng := xrand.New(1)
	n := 4000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		scores[i] = rng.Float64()
		if rng.Bernoulli(0.3) {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
	}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.03 {
		t.Fatalf("random AUC = %v, want ~0.5", auc)
	}
}

func TestCrossValidateAUC(t *testing.T) {
	// Separable task: pooled CV AUC near 1.
	rng := xrand.New(2)
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			x = append(x, []float64{2 + rng.Norm(0, 0.3)})
			y = append(y, 1)
		} else {
			x = append(x, []float64{-2 + rng.Norm(0, 0.3)})
			y = append(y, -1)
		}
	}
	trainer := func(trX [][]float64, trY []int) (func([]float64) float64, error) {
		// A trivial scorer: the feature itself (already discriminative).
		return func(row []float64) float64 { return row[0] }, nil
	}
	scores, err := CrossValidate(x, y, 5, trainer, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Every sample is scored once, out of fold, at its own index.
	for i := range x {
		if scores[i] != x[i][0] {
			t.Fatalf("score %d = %v, want its feature %v", i, scores[i], x[i][0])
		}
	}
	auc, err := AUC(scores, y)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.99 {
		t.Fatalf("CV AUC = %v on separable data", auc)
	}
}
