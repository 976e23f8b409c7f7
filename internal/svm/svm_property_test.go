package svm

import (
	"math"
	"testing"
	"testing/quick"

	"viralcast/internal/xrand"
)

// Property: training on arbitrary bounded data always produces finite
// weights and predictions in {-1, +1}.
func TestTrainRobustnessProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 10 + rng.Intn(40)
		dim := 1 + rng.Intn(4)
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			row := make([]float64, dim)
			for j := range row {
				row[j] = rng.Norm(0, 100) // wild scales on purpose
			}
			x[i] = row
			if rng.Bernoulli(0.5) {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		// Ensure both classes present so training is well-posed.
		y[0], y[1] = 1, -1
		m, err := train(x, y, Options{Seed: seed, Epochs: 10}, 1)
		if err != nil {
			return false
		}
		for _, w := range m.W {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return false
			}
		}
		for _, row := range x {
			p := m.Predict(row)
			if p != 1 && p != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: standardization is invertible in effect — applying the
// fitted standardizer to the training data yields mean ~0 per feature.
func TestStandardizerCentersProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(30)
		dim := 1 + rng.Intn(4)
		x := make([][]float64, n)
		for i := range x {
			row := make([]float64, dim)
			for j := range row {
				row[j] = rng.Norm(float64(j)*10, 5)
			}
			x[i] = row
		}
		std, err := FitStandardizer(x)
		if err != nil {
			return false
		}
		out := std.Apply(x)
		for j := 0; j < dim; j++ {
			var mean float64
			for i := range out {
				mean += out[i][j]
			}
			mean /= float64(n)
			if math.Abs(mean) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the #neg/#pos class weight (TrainBestF1's "auto" weight and
// its small-sample fallback) never flips the sign semantics — on
// separable data the balanced model still classifies both classes
// correctly.
func TestAutoBalanceSeparableProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		var x [][]float64
		var y []int
		pos := 0
		for i := 0; i < 60; i++ {
			if i%6 == 0 { // 1:5 imbalance
				x = append(x, []float64{3 + rng.Norm(0, 0.2)})
				y = append(y, 1)
				pos++
			} else {
				x = append(x, []float64{-3 + rng.Norm(0, 0.2)})
				y = append(y, -1)
			}
		}
		m, err := train(x, y, Options{Seed: seed, Epochs: 40}, float64(len(y)-pos)/float64(pos))
		if err != nil {
			return false
		}
		correct := 0
		for i := range x {
			if m.Predict(x[i]) == y[i] {
				correct++
			}
		}
		return float64(correct)/float64(len(x)) > 0.9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
