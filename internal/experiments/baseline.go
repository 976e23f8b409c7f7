package experiments

import (
	"strings"
	"time"

	"viralcast/internal/eval"
	"viralcast/internal/features"
	"viralcast/internal/netrate"
	"viralcast/internal/pointproc"
	"viralcast/internal/report"
)

// ModelComparison pits the paper's node-embedding inference against the
// link-based baseline it argues against (NetRate-style per-edge rates):
// parameter count, fitting time, and held-out likelihood. This is the
// quantitative backing for the paper's O(n^2)-parameters critique and
// for the abstract's order-of-magnitude speedup claim over link-based
// processing.
type ModelComparison struct {
	Name       string
	Parameters int
	Seconds    float64
	TrainLL    float64
	HeldOutLL  float64
}

// CompareEdgeBaseline sets a NetRate fit of the workload's training
// cascades beside its node-embedding fit (whose fitting time is the
// whole core.Train, FitSeconds). The edge baseline's held-out likelihood is
// evaluated only on its candidate edges, which favors it slightly; the
// node model covers every pair.
func CompareEdgeBaseline(w *SBMWorkload) ([]ModelComparison, error) {
	e := w.Exp
	nodeM := w.Fit.Embeddings
	out := []ModelComparison{{
		Name:       "node-embeddings",
		Parameters: 2 * e.N * e.InferK,
		Seconds:    w.FitSeconds,
		TrainLL:    nodeM.LogLikAll(w.Train),
		HeldOutLL:  nodeM.LogLikAll(w.Test),
	}}

	start := time.Now()
	edgeM, _, err := netrate.Fit(w.Train, e.N, netrate.Config{
		MinPairCount: 2, MaxIter: e.MaxIter, Seed: e.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	out = append(out, ModelComparison{
		Name:       "edge-rates (NetRate-style)",
		Parameters: edgeM.NumEdges(),
		Seconds:    time.Since(start).Seconds(),
		TrainLL:    edgeM.LogLikAll(w.Train),
		HeldOutLL:  edgeM.LogLikAll(w.Test),
	})
	return out, nil
}

// PredictorComparison scores the paper's embedding-feature SVM against
// the two baseline families §V surveys: the topology-free self-exciting
// point process (SEISMIC-style) and the raw early-count heuristic.
type PredictorComparison struct {
	Name      string
	F1        float64
	Accuracy  float64
	Threshold int
}

// ComparePredictors evaluates all four predictors on the workload at
// its top-20% virality threshold. The SVM rows are classified under the
// workload's CV seed; the embedding row is its trio score.
func ComparePredictors(w *SBMWorkload) ([]PredictorComparison, error) {
	threshold := w.Threshold
	row := func(name string, conf eval.Confusion) PredictorComparison {
		return PredictorComparison{Name: name, F1: conf.F1(), Accuracy: conf.Accuracy(), Threshold: threshold}
	}
	emb, err := w.Score(nil)
	if err != nil {
		return nil, err
	}
	early, err := w.Score([]string{"earlyCount", "earlyRate"})
	if err != nil {
		return nil, err
	}
	// Topology features (paper §V's first baseline family, refs [20-21]):
	// requires the true propagation graph and communities, which the
	// synthetic workload knows but a GDELT-like deployment would not.
	topoSets, topoSizes, err := features.ExtractTopoAll(w.Graph, w.Membership, w.Test, w.EarlyCutoff())
	if err != nil {
		return nil, err
	}
	x := make([][]float64, len(topoSets))
	for i, ts := range topoSets {
		x[i] = ts.Vector()
	}
	topo, err := classify(x, eval.LabelsBySizeThreshold(topoSizes, threshold), 10, w.cvSeed())
	if err != nil {
		return nil, err
	}

	// Point process: fit on the training cascades (full observations),
	// classify the test cascades.
	pp, err := pointproc.Fit(w.Train, w.EarlyCutoff())
	if err != nil {
		return nil, err
	}
	labels := pp.Classify(w.Test, threshold)
	var truth, pred []int
	for i, c := range w.Test {
		l, ok := labels[i]
		if !ok {
			continue
		}
		if c.Size() >= threshold {
			truth = append(truth, 1)
		} else {
			truth = append(truth, -1)
		}
		pred = append(pred, l)
	}
	pointConf, err := eval.Confuse(truth, pred)
	if err != nil {
		return nil, err
	}
	return []PredictorComparison{
		row("embedding features + SVM", emb.Confusion),
		row("early-count features + SVM", early.Confusion),
		row("topology features + SVM (needs the hidden graph)", topo.Confusion),
		row("self-exciting point process", pointConf),
	}, nil
}

// RenderPredictorComparison renders the predictor-family comparison.
func RenderPredictorComparison(rows []PredictorComparison) string {
	var b strings.Builder
	b.WriteString("Baseline — predictor families at the top-20% threshold\n")
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			r.Name,
			report.FormatFloat(r.F1, 3),
			report.FormatFloat(r.Accuracy, 3),
		}
	}
	b.WriteString(report.Table([]string{"predictor", "F1", "accuracy"}, table))
	return b.String()
}

// RenderModelComparison renders what the seed determines of the
// node-vs-edge comparison: everything but the fitting time (Seconds).
func RenderModelComparison(rows []ModelComparison) string {
	var b strings.Builder
	b.WriteString("Baseline — node embeddings vs per-edge rates\n")
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			r.Name,
			report.FormatFloat(float64(r.Parameters), 0),
			report.FormatFloat(r.TrainLL, 1),
			report.FormatFloat(r.HeldOutLL, 1),
		}
	}
	b.WriteString(report.Table(
		[]string{"model", "parameters", "train-loglik", "heldout-loglik"}, table))
	return b.String()
}
