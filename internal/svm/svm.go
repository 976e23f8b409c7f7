// Package svm implements the linear support-vector classifier used for
// cascade-virality prediction (paper §V uses an SVM with a linear kernel,
// stressing that a simple classifier suffices when the features are
// informative). Training is primal stochastic sub-gradient descent on the
// hinge loss with L2 regularization (Pegasos, Shalev-Shwartz et al.),
// which converges quickly on the paper's 3-dimensional feature vectors.
package svm

import (
	"fmt"
	"math"

	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// lambda is the L2 regularization strength.
const lambda = 1e-3

// Options configures training; the regularization strength is fixed
// (lambda). Fit sets both fields; bench/ is the only other caller, which
// is why they are still exported.
type Options struct {
	// Epochs is the number of passes over the training set (default 50).
	Epochs int
	// Seed drives the stochastic sample order.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Epochs <= 0 {
		o.Epochs = 50
	}
	return o
}

// Model is a trained linear classifier: prediction is sign(W·x + Bias).
type Model struct {
	W    []float64
	Bias float64
}

// Fit trains the virality classifier core.TrainPredictor serves and the
// lab cross-validates: x is standardized, then TrainBestF1 runs over its
// default weight grid with Pegasos seeded seed+1 and the validation
// split drawn from seed+2.
func Fit(x [][]float64, y []int, seed uint64) (*Standardizer, *Model, error) {
	std, err := FitStandardizer(x)
	if err != nil {
		return nil, nil, err
	}
	m, err := TrainBestF1(std.Apply(x), y, Options{Seed: seed + 1, Epochs: 60}, nil, xrand.New(seed+2))
	if err != nil {
		return nil, nil, err
	}
	return std, m, nil
}

// train fits a linear SVM on features x (rows) and labels y (+1 or -1).
// posWeight scales the hinge loss of positive-class samples — the
// standard cost-sensitive SVM for imbalanced tasks such as the paper's
// top-20% virality threshold (1 is unweighted).
func train(x [][]float64, y []int, opt Options, posWeight float64) (*Model, error) {
	opt = opt.withDefaults()
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("svm: %d samples but %d labels", len(x), len(y))
	}
	dim := len(x[0])
	if dim == 0 {
		return nil, fmt.Errorf("svm: zero-dimensional features")
	}
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("svm: sample %d has %d features, want %d", i, len(row), dim)
		}
		if y[i] != 1 && y[i] != -1 {
			return nil, fmt.Errorf("svm: label %d is %d, want +1 or -1", i, y[i])
		}
	}
	// The bias is trained as a constant-1 feature appended to every
	// sample (lightly regularized with the rest of the weights), which
	// keeps the Pegasos step sizes stable. The returned model averages
	// the iterates of the second half of training — standard Pegasos
	// suffix averaging, which markedly reduces the variance of the final
	// hyperplane.
	aug := make([][]float64, len(x))
	for i, row := range x {
		aug[i] = append(append(make([]float64, 0, dim+1), row...), 1)
	}
	w := make([]float64, dim+1)
	avg := make([]float64, dim+1)
	avgCount := 0
	rng := xrand.New(opt.Seed)
	t := 0
	halfway := opt.Epochs / 2
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		order := rng.Perm(len(aug))
		for _, i := range order {
			t++
			eta := 1 / (lambda * float64(t))
			margin := float64(y[i]) * vecmath.Dot(w, aug[i])
			// Regularization shrink applies on every step.
			vecmath.Scale(1-eta*lambda, w)
			if margin < 1 {
				weight := 1.0
				if y[i] == 1 {
					weight = posWeight
				}
				vecmath.Axpy(eta*weight*float64(y[i]), aug[i], w)
			}
		}
		if epoch >= halfway {
			vecmath.Add(w, avg)
			avgCount++
		}
	}
	if avgCount > 0 {
		vecmath.Scale(1/float64(avgCount), avg)
	} else {
		copy(avg, w)
	}
	if !vecmath.AllFinite(avg) {
		return nil, fmt.Errorf("svm: training diverged (non-finite weights); standardize features")
	}
	return &Model{W: avg[:dim], Bias: avg[dim]}, nil
}

// Decision returns the signed distance proxy W·x + Bias.
func (m *Model) Decision(x []float64) float64 {
	return vecmath.Dot(m.W, x) + m.Bias
}

// DecisionBlock computes Decision for every row of a row-major batch
// block into dst: dst[i] = W · x[i*stride : i*stride+len(W)] + Bias.
// The inner products run through the blocked vecmath.Gemv kernel, whose
// per-row accumulation order matches Dot exactly, so each margin is
// bit-identical to calling Decision on that row.
func (m *Model) DecisionBlock(dst, x []float64, stride int) {
	vecmath.Gemv(dst, x, stride, m.W)
	for i := range dst {
		dst[i] += m.Bias
	}
}

// Predict returns +1 or -1.
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// TrainBestF1 trains cost-sensitive SVMs over a grid of positive-class
// weights and returns the one with the best F1 on an internal
// validation split (stratified 75/25). It exists because the right
// imbalance compensation for the virality task depends on how separable
// the classes are: full #neg/#pos balancing maximizes recall at a steep
// precision cost, while no weighting collapses recall. weights lists the
// candidate positive-class weights; 0 entries mean "auto" (#neg/#pos).
func TrainBestF1(x [][]float64, y []int, opt Options, weights []float64, rng *xrand.RNG) (*Model, error) {
	if len(weights) == 0 {
		weights = []float64{1, 2, 4, 0}
	}
	// Stratified split.
	var pos, neg []int
	for i, label := range y {
		if label == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if len(pos) < 4 || len(neg) < 4 {
		// Too small to validate: weight the classes #neg/#pos, which
		// equalizes their total loss mass.
		w := 1.0
		if len(pos) > 0 && len(neg) > 0 {
			w = float64(len(neg)) / float64(len(pos))
		}
		return train(x, y, opt, w)
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	valSet := map[int]bool{}
	for _, i := range pos[:len(pos)/4] {
		valSet[i] = true
	}
	for _, i := range neg[:len(neg)/4] {
		valSet[i] = true
	}
	var trX, vaX [][]float64
	var trY, vaY []int
	for i := range x {
		if valSet[i] {
			vaX = append(vaX, x[i])
			vaY = append(vaY, y[i])
		} else {
			trX = append(trX, x[i])
			trY = append(trY, y[i])
		}
	}
	autoW := float64(len(neg)) / float64(len(pos))
	bestF1 := -1.0
	bestW := 1.0
	for _, w := range weights {
		if w == 0 {
			w = autoW
		}
		m, err := train(trX, trY, opt, w)
		if err != nil {
			continue
		}
		var tp, fp, fn int
		for i, row := range vaX {
			p := m.Predict(row)
			switch {
			case vaY[i] == 1 && p == 1:
				tp++
			case vaY[i] == -1 && p == 1:
				fp++
			case vaY[i] == 1 && p == -1:
				fn++
			}
		}
		f1 := 0.0
		if 2*tp+fp+fn > 0 {
			f1 = 2 * float64(tp) / float64(2*tp+fp+fn)
		}
		if f1 > bestF1 {
			bestF1, bestW = f1, w
		}
	}
	return train(x, y, opt, bestW)
}

// Standardizer shifts and scales features to zero mean and unit variance,
// fitted on training data and applied to both splits. SVM training on raw
// heavy-tailed cascade features is ill-conditioned without it.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer estimates per-feature mean and standard deviation.
func FitStandardizer(x [][]float64) (*Standardizer, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("svm: cannot standardize empty data")
	}
	dim := len(x[0])
	mean := make([]float64, dim)
	std := make([]float64, dim)
	for _, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("svm: ragged feature rows")
		}
		vecmath.Add(row, mean)
	}
	vecmath.Scale(1/float64(len(x)), mean)
	for _, row := range x {
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(x)))
		if std[j] < 1e-12 {
			std[j] = 1 // constant feature: leave centered, unscaled
		}
	}
	return &Standardizer{Mean: mean, Std: std}, nil
}

// ApplyRow appends the standardized form of one feature row to dst and
// returns it — the allocation-free single-sample path serving
// predictions use (Apply allocates a full copy, the right shape for
// training batches).
func (s *Standardizer) ApplyRow(dst, row []float64) []float64 {
	for j, v := range row {
		dst = append(dst, (v-s.Mean[j])/s.Std[j])
	}
	return dst
}

// ApplyBlock standardizes a row-major batch block in place: every row
// x[i*stride : i*stride+dim] becomes its standardized form, where dim =
// len(s.Mean) and stride >= dim (padding columns are untouched). Each
// element gets exactly the (v-Mean[j])/Std[j] ApplyRow computes — a real
// division, not a cached reciprocal, because reciprocal-multiply rounds
// differently and the batched predict path promises bit-identical
// margins to the single-request path.
func (s *Standardizer) ApplyBlock(x []float64, rows, stride int) {
	dim := len(s.Mean)
	if dim > stride {
		panic(fmt.Sprintf("svm: ApplyBlock %d features into stride %d", dim, stride))
	}
	if len(x) < rows*stride {
		panic(fmt.Sprintf("svm: ApplyBlock block %d shorter than %d rows x stride %d", len(x), rows, stride))
	}
	for i := 0; i < rows; i++ {
		row := x[i*stride : i*stride+dim]
		for j, v := range row {
			row[j] = (v - s.Mean[j]) / s.Std[j]
		}
	}
}

// Apply returns the standardized copy of x.
func (s *Standardizer) Apply(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = (v - s.Mean[j]) / s.Std[j]
		}
		out[i] = r
	}
	return out
}
