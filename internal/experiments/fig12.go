package experiments

import (
	"fmt"
	"strings"

	"viralcast/internal/core"
	"viralcast/internal/eval"
	"viralcast/internal/features"
	"viralcast/internal/gdelt"
)

// GDELTPredictionExperiment configures the Figure 12 study: predict, from
// the sites reporting a news event in its first EarlyHours, how many
// sites will have reported it within the full window (paper: first 5
// hours predict the 3-day total, 2,600 sampled events, 6,000 sites).
type GDELTPredictionExperiment struct {
	Dataset    gdelt.Config
	TrainFrac  float64 // fraction of events used to fit the embeddings
	EarlyHours float64
	InferK     int
	MaxIter    int
	Workers    int
	Seed       uint64
}

// DefaultGDELTPrediction mirrors the paper's §VI-B setup.
func DefaultGDELTPrediction() GDELTPredictionExperiment {
	return GDELTPredictionExperiment{
		Dataset:    gdelt.DefaultConfig(),
		TrainFrac:  0.7,
		EarlyHours: 5,
		InferK:     4,
		MaxIter:    20,
		Workers:    4,
		Seed:       1,
	}
}

// Figure12Result holds the GDELT virality-prediction sweep.
type Figure12Result struct {
	Events     int
	Thresholds []int
	F1         []float64
	TopFracF1  float64
	TopFracThr int
	TopFracAUC float64
}

// Figure12 runs the end-to-end GDELT study: generate the corpus, infer
// site embeddings from the training events, extract early-reporter
// features for the held-out events, and sweep the classification
// threshold.
func Figure12(e GDELTPredictionExperiment) (*Figure12Result, error) {
	if e.TrainFrac <= 0 || e.TrainFrac >= 1 {
		return nil, fmt.Errorf("experiments: TrainFrac must be in (0,1), got %v", e.TrainFrac)
	}
	ds, err := gdelt.Generate(e.Dataset)
	if err != nil {
		return nil, err
	}
	nTrain := int(float64(len(ds.Events)) * e.TrainFrac)
	if nTrain < 1 || nTrain >= len(ds.Events) {
		return nil, fmt.Errorf("experiments: degenerate train split %d of %d", nTrain, len(ds.Events))
	}
	train, test := ds.Events[:nTrain], ds.Events[nTrain:]
	sys, err := core.Train(train, e.Dataset.Sites, core.TrainConfig{
		Topics: e.InferK, MaxIter: e.MaxIter, Workers: e.Workers, Seed: e.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	sets, sizes, err := features.ExtractAll(sys.Embeddings, test, e.EarlyHours)
	if err != nil {
		return nil, err
	}
	if len(sets) < 20 {
		return nil, fmt.Errorf("experiments: only %d usable test events", len(sets))
	}
	res := &Figure12Result{Events: len(sets), TopFracThr: eval.TopFractionThreshold(sizes, 0.2)}
	if res.Thresholds, res.F1, err = thresholdGrid(sets, sizes, e.Seed+9); err != nil {
		return nil, err
	}
	top, err := Classify(sets, sizes, res.TopFracThr, nil, 10, e.Seed+9)
	if err != nil {
		return nil, err
	}
	res.TopFracF1, res.TopFracAUC = top.F1(), top.AUC
	return res, nil
}

// Render gives the terminal rendition of Figure 12.
func (r *Figure12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12 — viral news-event prediction on the synthetic GDELT corpus (%d test events)\n", r.Events)
	b.WriteString("threshold  F1\n")
	for i, th := range r.Thresholds {
		fmt.Fprintf(&b, "%9d  %.3f\n", th, r.F1[i])
	}
	fmt.Fprintf(&b, "Top-20%% task: threshold=%d F1=%.3f AUC=%.3f (paper reports F1~0.80)\n", r.TopFracThr, r.TopFracF1, r.TopFracAUC)
	return b.String()
}

// CSV emits the F1 series.
func (r *Figure12Result) CSV() ([]string, [][]float64) {
	header := []string{"threshold", "f1"}
	rows := make([][]float64, len(r.Thresholds))
	for i := range r.Thresholds {
		rows[i] = []float64{float64(r.Thresholds[i]), r.F1[i]}
	}
	return header, rows
}
