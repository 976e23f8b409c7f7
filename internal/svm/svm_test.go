package svm

import (
	"math"
	"testing"

	"viralcast/internal/xrand"
)

// separable2D makes a linearly separable 2-D dataset.
func separable2D(n int, seed uint64) ([][]float64, []int) {
	rng := xrand.New(seed)
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		// Positive class around (2, 2), negative around (-2, -2).
		label := 1
		cx, cy := 2.0, 2.0
		if i%2 == 0 {
			label = -1
			cx, cy = -2, -2
		}
		x = append(x, []float64{cx + rng.Norm(0, 0.5), cy + rng.Norm(0, 0.5)})
		y = append(y, label)
	}
	return x, y
}

func TestTrainSeparable(t *testing.T) {
	x, y := separable2D(200, 1)
	m, err := train(x, y, Options{Seed: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if m.Predict(x[i]) == y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(x))
	if acc < 0.97 {
		t.Fatalf("training accuracy %v on separable data", acc)
	}
}

func TestTrainGeneralizes(t *testing.T) {
	trX, trY := separable2D(200, 3)
	teX, teY := separable2D(100, 4)
	m, err := train(trX, trY, Options{Seed: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range teX {
		if m.Predict(teX[i]) == teY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(teX)); acc < 0.95 {
		t.Fatalf("test accuracy %v", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := train(nil, nil, Options{}, 1); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := train([][]float64{{1}}, []int{0}, Options{}, 1); err == nil {
		t.Error("bad label accepted")
	}
	if _, err := train([][]float64{{1}, {1, 2}}, []int{1, -1}, Options{}, 1); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := train([][]float64{{}}, []int{1}, Options{}, 1); err == nil {
		t.Error("zero-dim features accepted")
	}
	if _, err := train([][]float64{{1}}, []int{1, -1}, Options{}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDecisionSign(t *testing.T) {
	m := &Model{W: []float64{1, -1}, Bias: 0.5}
	if got := m.Decision([]float64{2, 1}); got != 1.5 {
		t.Fatalf("Decision = %v", got)
	}
	if m.Predict([]float64{2, 1}) != 1 {
		t.Error("Predict should be +1")
	}
	if m.Predict([]float64{-2, 1}) != -1 {
		t.Error("Predict should be -1")
	}
}

func TestTrainDeterministic(t *testing.T) {
	x, y := separable2D(100, 6)
	m1, _ := train(x, y, Options{Seed: 7}, 1)
	m2, _ := train(x, y, Options{Seed: 7}, 1)
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("same seed, different weights")
		}
	}
	if m1.Bias != m2.Bias {
		t.Fatal("same seed, different bias")
	}
}

func TestImbalancedStillFindsPositives(t *testing.T) {
	// 10% positive class, still separable: the classifier must not
	// collapse to always-negative.
	rng := xrand.New(8)
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		if i%10 == 0 {
			x = append(x, []float64{3 + rng.Norm(0, 0.3)})
			y = append(y, 1)
		} else {
			x = append(x, []float64{-1 + rng.Norm(0, 0.3)})
			y = append(y, -1)
		}
	}
	m, err := train(x, y, Options{Seed: 9, Epochs: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := 0
	for i := range x {
		if y[i] == 1 && m.Predict(x[i]) == 1 {
			tp++
		}
	}
	if tp < 25 {
		t.Fatalf("found only %d/30 positives in imbalanced separable data", tp)
	}
}

func TestStandardizer(t *testing.T) {
	x := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s, err := FitStandardizer(x)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean[0] != 3 || s.Mean[1] != 10 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	// Column 1 is constant: std forced to 1 to avoid division by zero.
	if s.Std[1] != 1 {
		t.Fatalf("constant-column std = %v, want 1", s.Std[1])
	}
	out := s.Apply(x)
	// Standardized column 0 must have mean 0, std 1.
	var mean, varsum float64
	for _, row := range out {
		mean += row[0]
	}
	mean /= 3
	for _, row := range out {
		varsum += (row[0] - mean) * (row[0] - mean)
	}
	sd := math.Sqrt(varsum / 3)
	if math.Abs(mean) > 1e-12 || math.Abs(sd-1) > 1e-12 {
		t.Fatalf("standardized mean %v sd %v", mean, sd)
	}
	// Apply must not mutate input.
	if x[0][0] != 1 {
		t.Fatal("Apply mutated input")
	}
}

func TestStandardizerErrors(t *testing.T) {
	if _, err := FitStandardizer(nil); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitStandardizer([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged rows accepted")
	}
}
