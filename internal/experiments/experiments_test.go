package experiments

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/eval"
	"viralcast/internal/features"
	"viralcast/internal/gdelt"
	"viralcast/internal/infer"
	"viralcast/internal/mergetree"
	"viralcast/internal/svm"
)

// scaled shrinks the workload for fast unit tests while keeping every
// structural property.
func (e SBMExperiment) scaled(n, cascades int) SBMExperiment {
	e.N = n
	e.Cascades = cascades
	e.Train = cascades * 2 / 3
	return e
}

// testSBM is a small but structurally faithful workload.
func testSBM() SBMExperiment {
	e := DefaultSBM()
	e = e.scaled(400, 450)
	e.MaxIter = 8
	return e
}

// build draws and fits e's workload.
func build(t *testing.T, e SBMExperiment) *SBMWorkload {
	t.Helper()
	w, err := BuildSBMWorkload(e)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testGDELT() gdelt.Config {
	cfg := gdelt.DefaultConfig()
	cfg.Sites = 300
	cfg.Events = 400
	cfg.MeanDegree = 12
	cfg.CrossLinks = 50
	cfg.Seed = 2
	return cfg
}

func TestSBMExperimentValidate(t *testing.T) {
	if err := DefaultSBM().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultSBM()
	bad.Train = bad.Cascades
	if err := bad.Validate(); err == nil {
		t.Error("Train >= Cascades accepted")
	}
	bad = DefaultSBM()
	bad.EarlyFrac = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("EarlyFrac > 1 accepted")
	}
}

func TestBuildSBMWorkload(t *testing.T) {
	w, err := BuildSBMWorkload(testSBM())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Train)+len(w.Test) != 450 {
		t.Fatalf("split sizes: %d + %d", len(w.Train), len(w.Test))
	}
	if err := w.Truth.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.EarlyCutoff() <= 0 || w.EarlyCutoff() >= w.Exp.Window {
		t.Fatalf("EarlyCutoff = %v", w.EarlyCutoff())
	}
	// Sizes must be heavy-tailed: some cascade should be much larger than
	// the median.
	var max, total int
	for _, c := range w.Train {
		if c.Size() > max {
			max = c.Size()
		}
		total += c.Size()
	}
	mean := float64(total) / float64(len(w.Train))
	if float64(max) < 2.5*mean {
		t.Errorf("no heavy tail: max %d vs mean %.1f", max, mean)
	}
}

func TestFigures6to9SmallScale(t *testing.T) {
	scatter, fig9, err := Figures6to9(build(t, testSBM()))
	if err != nil {
		t.Fatal(err)
	}
	if len(scatter.DiverA) == 0 || len(scatter.DiverA) != len(scatter.NormA) {
		t.Fatalf("scatter sizes: %d / %d", len(scatter.DiverA), len(scatter.NormA))
	}
	// The features must carry real signal: positive rank correlation.
	if scatter.CorrDiverA <= 0.1 || scatter.CorrNormA <= 0.1 || scatter.CorrMaxA <= 0.1 {
		t.Errorf("weak correlations: %v %v %v",
			scatter.CorrDiverA, scatter.CorrNormA, scatter.CorrMaxA)
	}
	if len(fig9.Thresholds) == 0 || len(fig9.Thresholds) != len(fig9.F1) {
		t.Fatalf("fig9 thresholds/F1: %d / %d", len(fig9.Thresholds), len(fig9.F1))
	}
	// F1 at the lowest threshold must beat F1 at the highest (the paper's
	// downward-sloping curve).
	if fig9.F1[0] <= fig9.F1[len(fig9.F1)-1] {
		t.Errorf("F1 curve not decreasing: %v", fig9.F1)
	}
	for _, f := range fig9.F1 {
		if f < 0 || f > 1 {
			t.Fatalf("F1 out of range: %v", fig9.F1)
		}
	}
	// Rendering and CSV must not panic and must carry content.
	if s := scatter.Render(); len(s) < 100 {
		t.Error("scatter render too short")
	}
	if s := fig9.Render(); len(s) < 100 {
		t.Error("fig9 render too short")
	}
	h, rows := fig9.CSV()
	if len(h) != 2 || len(rows) != len(fig9.Thresholds) {
		t.Error("fig9 CSV malformed")
	}
	h2, rows2 := scatter.CSV()
	if len(h2) != 4 || len(rows2) != len(scatter.DiverA) {
		t.Error("scatter CSV malformed")
	}
}

func TestFigure1(t *testing.T) {
	ds, err := gdelt.Generate(testGDELT())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure1(ds, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled < 50 {
		t.Fatalf("too few usable cascades: %d", res.Sampled)
	}
	if len(res.TopMerges) == 0 {
		t.Fatal("no merges recorded")
	}
	// Cluster sizes must cover all sampled cascades.
	total := 0
	for _, s := range res.ClusterSizes {
		total += s
	}
	if total != res.Sampled {
		t.Fatalf("cluster sizes sum %d != sampled %d", total, res.Sampled)
	}
	// Regional structure should make the clustering far better than the
	// 1/k chance level.
	if res.RegionPurity < 0.5 {
		t.Errorf("region purity %.3f too low", res.RegionPurity)
	}
	if s := res.Render(); len(s) < 50 {
		t.Error("render too short")
	}
}

func TestModalRegionTieGoesToLowestID(t *testing.T) {
	ds := &gdelt.Dataset{Sites: []gdelt.Site{{Region: 3}, {Region: 1}, {Region: 3}, {Region: 1}, {Region: 2}, {Region: 0}}}
	var c cascade.Cascade
	for _, site := range []int{0, 1, 2, 3, 4} { // regions 3 and 1 twice each
		c.Infections = append(c.Infections, cascade.Infection{Node: site, Time: float64(site)})
	}
	// Map iteration order is drawn afresh on every range; a strict > over
	// it picked 3 about half the time.
	for i := 0; i < 200; i++ {
		if got := modalRegion(ds, &c); got != 1 {
			t.Fatalf("call %d: modal region %d, want 1 (regions 1 and 3 tie)", i, got)
		}
	}
}

// Figure 1 is a function of the corpus and the seed: repeated calls give
// the same purity. The corpus is cmd/figures' small scale at seed 3, where
// the map-order tie-break gave 0.5992 in about 7 calls of 10 and 0.6012
// in the rest.
func TestFigure1Deterministic(t *testing.T) {
	cfg := gdelt.DefaultConfig()
	cfg.Sites, cfg.Events, cfg.CrossLinks, cfg.Seed = 600, 1250, 90, 3
	ds, err := gdelt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Figure1(ds, 800, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 12; i++ {
		res, err := Figure1(ds, 800, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.RegionPurity != first.RegionPurity {
			t.Fatalf("call %d: region purity %v, first call %v", i, res.RegionPurity, first.RegionPurity)
		}
	}
}

func TestFigure2(t *testing.T) {
	ds, err := gdelt.Generate(testGDELT())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure2(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges == 0 || res.Nodes == 0 {
		t.Fatalf("empty backbone: %+v", res)
	}
	if res.IntraRegional <= 0.5 {
		t.Errorf("intra-regional fraction %.3f; backbone should be regional", res.IntraRegional)
	}
	if s := res.Render(); len(s) < 50 {
		t.Error("render too short")
	}
}

func TestFigure3(t *testing.T) {
	ds, err := gdelt.Generate(testGDELT())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure3(ds, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bins) == 0 {
		t.Fatal("no bins")
	}
	if res.Alpha < 1 || res.Alpha > 10 {
		t.Errorf("implausible power-law alpha %.2f", res.Alpha)
	}
	if s := res.Render(); len(s) < 50 {
		t.Error("render too short")
	}
}

func TestFigures10And13(t *testing.T) {
	sc := DefaultScaling()
	sc.MaxIter = 6
	series, err := Figure10(sc, 300, []int{120, 240})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Seconds) != len(sc.Cores) {
			t.Fatalf("series %s has %d points", s.Label, len(s.Seconds))
		}
		for _, sec := range s.Seconds {
			if sec <= 0 {
				t.Fatalf("non-positive runtime in %s: %v", s.Label, s.Seconds)
			}
		}
		sp := s.Speedup()
		if sp[0] != 1 {
			t.Fatalf("speedup at 1 core = %v", sp[0])
		}
		ef := s.Efficiency()
		if ef[0] != 1 {
			t.Fatalf("efficiency at 1 core = %v", ef[0])
		}
		// Efficiency must decline with core count (communication + load
		// imbalance), matching the paper's Figure 13.
		if ef[len(ef)-1] >= ef[0] {
			t.Errorf("efficiency did not decline: %v", ef)
		}
	}
	// More cascades must cost more at 1 core (paper: time linear in C).
	if series[1].Seconds[0] <= series[0].Seconds[0] {
		t.Errorf("t1 not increasing in C: %v vs %v", series[0].Seconds[0], series[1].Seconds[0])
	}
	f13 := &Figure13Result{Series: series}
	if s := f13.Render(); len(s) < 100 {
		t.Error("fig13 render too short")
	}
	if s := RenderScaling("t", series); len(s) < 100 {
		t.Error("scaling render too short")
	}
	h, rows := CSVScaling(series)
	if len(h) != 6 || len(rows) != 2*len(sc.Cores) {
		t.Error("scaling CSV malformed")
	}
}

func TestFigure11(t *testing.T) {
	sc := DefaultScaling()
	sc.MaxIter = 5
	series, err := Figure11(sc, []int{200, 400}, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	// The second graph fits the shortest prefix of its draw that holds
	// at least the first graph's infections.
	first, err := drawScaling(sc, 200, 150)
	if err != nil {
		t.Fatal(err)
	}
	second, err := drawScaling(sc, 400, series[1].C)
	if err != nil {
		t.Fatal(err)
	}
	target, got := cascade.TotalInfections(first), cascade.TotalInfections(second)
	if series[0].C != 150 || got < target || got-second[len(second)-1].Size() >= target {
		t.Fatalf("N=400 fits %d cascades holding %d infections, N=200 %d holding %d: not the shortest prefix at matched work",
			series[1].C, got, series[0].C, target)
	}
	// The paper's point: runtime depends weakly on N at fixed work. Allow a
	// generous factor but require the same order of magnitude.
	t1a, t1b := series[0].Seconds[0], series[1].Seconds[0]
	ratio := t1b / t1a
	if ratio > 6 || ratio < 1.0/6 {
		t.Errorf("runtime strongly depends on N: %v vs %v", t1a, t1b)
	}
}

func TestFigure12SmallScale(t *testing.T) {
	e := DefaultGDELTPrediction()
	e.Dataset = testGDELT()
	e.MaxIter = 8
	res, err := Figure12(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 20 {
		t.Fatalf("too few test events: %d", res.Events)
	}
	if len(res.Thresholds) == 0 {
		t.Fatal("no thresholds")
	}
	for _, f := range res.F1 {
		if f < 0 || f > 1 {
			t.Fatalf("F1 out of range: %v", res.F1)
		}
	}
	if s := res.Render(); len(s) < 50 {
		t.Error("render too short")
	}
	h, rows := res.CSV()
	if len(h) != 2 || len(rows) != len(res.Thresholds) {
		t.Error("CSV malformed")
	}
}

// The lab's GDELT study fits what the product fits: at the scale of
// `figures -fig 12 -scale small`, Figure 12's top-20 % threshold, F1 and
// AUC equal, bit for bit, those of the features a core.Train fit gives
// on the same training events with the same K, MaxIter, Workers and
// seed.
func TestFigure12FitsWhatTrainFits(t *testing.T) {
	e := DefaultGDELTPrediction()
	e.Dataset.Sites, e.Dataset.Events, e.Dataset.CrossLinks, e.Dataset.Seed = 600, 650, 90, 1
	e.MaxIter = 8
	res, err := Figure12(e)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := gdelt.Generate(e.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	nTrain := int(float64(len(ds.Events)) * e.TrainFrac)
	sys, err := core.Train(ds.Events[:nTrain], e.Dataset.Sites, core.TrainConfig{
		Topics: e.InferK, MaxIter: e.MaxIter, Workers: e.Workers, Seed: e.Seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sets, sizes, err := features.ExtractAll(sys.Embeddings, ds.Events[nTrain:], e.EarlyHours)
	if err != nil {
		t.Fatal(err)
	}
	thr := eval.TopFractionThreshold(sizes, 0.2)
	cl, err := Classify(sets, sizes, thr, nil, 10, e.Seed+9)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if res.Events != len(sets) || res.TopFracThr != thr || !same(res.TopFracF1, cl.F1()) || !same(res.TopFracAUC, cl.AUC) {
		t.Fatalf("Figure 12: %d events, threshold %d, F1 %v, AUC %v; core.Train's fit: %d, %d, %v, %v",
			res.Events, res.TopFracThr, res.TopFracF1, res.TopFracAUC, len(sets), thr, cl.F1(), cl.AUC)
	}
	t.Logf("top-20%% threshold %d: F1 %.3f, AUC %.3f", thr, cl.F1(), cl.AUC)
}

// TestLabClassifierMatchesTrainPredictor: the lab's classifier and the
// one core.TrainPredictor serves, trained on the same rows, are one fit —
// the same standardizer and weights, and the same margin on every
// cascade, bit for bit.
func TestLabClassifierMatchesTrainPredictor(t *testing.T) {
	w, err := BuildSBMWorkload(testSBM())
	if err != nil {
		t.Fatal(err)
	}
	seed := w.Exp.Seed + 1
	sys, err := core.Train(w.Train, w.Exp.N, core.TrainConfig{
		Topics: w.Exp.InferK, MaxIter: w.Exp.MaxIter, Workers: w.Exp.Workers, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sets, sizes, err := w.PredictionData(sys.Embeddings)
	if err != nil {
		t.Fatal(err)
	}
	thr := eval.TopFractionThreshold(sizes, 0.2)
	p, err := sys.TrainPredictor(w.Test, w.EarlyCutoff(), thr)
	if err != nil {
		t.Fatal(err)
	}
	x, err := designMatrix(sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	y := eval.LabelsBySizeThreshold(sizes, thr)

	// Predictor keeps its standardizer and model unexported; reflection
	// reads them without widening core's API for a test.
	pv := reflect.ValueOf(p).Elem()
	pstd, pm := pv.FieldByName("std").Elem(), pv.FieldByName("model").Elem()
	std, m, err := svm.Fit(x, y, seed)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats := func(what string, got reflect.Value, want []float64) {
		t.Helper()
		if got.Len() != len(want) {
			t.Fatalf("%s: %d values, want %d", what, got.Len(), len(want))
		}
		for i, v := range want {
			if math.Float64bits(got.Index(i).Float()) != math.Float64bits(v) {
				t.Fatalf("%s[%d] = %v, the lab's fit has %v", what, i, got.Index(i).Float(), v)
			}
		}
	}
	sameFloats("Mean", pstd.FieldByName("Mean"), std.Mean)
	sameFloats("Std", pstd.FieldByName("Std"), std.Std)
	sameFloats("W", pm.FieldByName("W"), m.W)
	if b := pm.FieldByName("Bias").Float(); math.Float64bits(b) != math.Float64bits(m.Bias) {
		t.Fatalf("Bias = %v, the lab's fit has %v", b, m.Bias)
	}

	score, err := servedClassifier(seed)(x, y)
	if err != nil {
		t.Fatal(err)
	}
	row, pos := 0, 0
	for _, c := range w.Test {
		viral, margin, err := p.PredictViral(c)
		if err != nil {
			continue // no infection before the cutoff; ExtractAll skips it too
		}
		if lab := score(x[row]); math.Float64bits(lab) != math.Float64bits(margin) || viral != (lab >= 0) {
			t.Fatalf("cascade %d: served margin %v (viral %v), the lab's %v", c.ID, margin, viral, lab)
		}
		if viral {
			pos++
		}
		row++
	}
	if row != len(x) {
		t.Fatalf("the predictor scored %d cascades, the lab has %d rows", row, len(x))
	}
	t.Logf("%d margins equal, %d called viral at threshold %d", row, pos, thr)
}

func TestAblationMergePolicy(t *testing.T) {
	sc := DefaultScaling()
	sc.MaxIter = 5
	rows, err := AblationMergePolicy(build(t, testSBM()), sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Node-count balancing must not be worse balanced than sequential
	// pairing.
	if rows[1].Imbalance > rows[0].Imbalance+1e-9 {
		t.Errorf("ByNodeCount imbalance %v worse than ByCommunityCount %v",
			rows[1].Imbalance, rows[0].Imbalance)
	}
	if s := RenderMergePolicy(rows, 8); len(s) < 50 {
		t.Error("render too short")
	}
}

func TestAblationOptimizers(t *testing.T) {
	e := testSBM()
	e.MaxIter = 5
	rows, err := AblationOptimizers(build(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Seconds <= 0 {
			t.Errorf("%s: non-positive runtime", r.Name)
		}
	}
	for _, want := range []string{"sequential", "hierarchical", "hogwild"} {
		if !names[want] {
			t.Errorf("missing optimizer %q", want)
		}
	}
	if s := RenderOptimizers(rows); len(s) < 50 {
		t.Error("render too short")
	}
}

func TestAblationFeatures(t *testing.T) {
	rows, err := AblationFeatures(build(t, testSBM()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.F1 < 0 || r.F1 > 1 {
			t.Fatalf("F1 out of range: %+v", r)
		}
	}
	if s := RenderFeatures(rows); len(s) < 50 {
		t.Error("render too short")
	}
}

func TestAblationTopicK(t *testing.T) {
	e := testSBM()
	e.MaxIter = 5
	rows, err := AblationTopicK(build(t, e), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].K != 1 || rows[1].K != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	if s := RenderTopicSweep(rows); len(s) < 50 {
		t.Error("render too short")
	}
}

func TestClassifyErrors(t *testing.T) {
	w := build(t, testSBM())
	sets, sizes := w.Sets, w.Sizes
	if _, err := Classify(sets, sizes, 1<<30, nil, 10, 1); !errors.Is(err, errSingleClass) {
		t.Errorf("single-class threshold: err %v, want errSingleClass", err)
	}
	if _, err := Classify(sets, sizes, 2, []string{"nope"}, 10, 1); err == nil {
		t.Error("unknown feature accepted")
	}
	// A threshold grid skips only single-class thresholds: eight cascades
	// cannot fill ten folds, and the grid returns that failure rather than
	// printing the thresholds it could score.
	if _, _, err := thresholdGrid(sets[:8], sizes[:8], 1); err == nil || errors.Is(err, errSingleClass) || !strings.Contains(err.Error(), "fold") {
		t.Errorf("threshold grid over 8 cascades: err %v, want the cross-validation's", err)
	}
}

func TestCompareEdgeBaseline(t *testing.T) {
	e := testSBM()
	e.MaxIter = 5
	rows, err := CompareEdgeBaseline(build(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	node, edge := rows[0], rows[1]
	if node.Parameters != 2*e.N*e.InferK {
		t.Errorf("node parameter count = %d", node.Parameters)
	}
	if edge.Parameters <= 0 {
		t.Errorf("edge parameter count = %d", edge.Parameters)
	}
	// The paper's critique: the edge model needs far more parameters.
	if edge.Parameters < node.Parameters {
		t.Logf("note: sparse workload, edge params %d < node params %d", edge.Parameters, node.Parameters)
	}
	if s := RenderModelComparison(rows); len(s) < 50 {
		t.Error("render too short")
	}
}

func TestComparePredictors(t *testing.T) {
	e := testSBM()
	e.MaxIter = 5
	rows, err := ComparePredictors(build(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d, want 4 predictor variants", len(rows))
	}
	for _, r := range rows {
		if r.F1 < 0 || r.F1 > 1 || r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("metrics out of range: %+v", r)
		}
	}
	if s := RenderPredictorComparison(rows); len(s) < 50 {
		t.Error("render too short")
	}
}

func TestConvergenceStudy(t *testing.T) {
	e := testSBM()
	e.MaxIter = 6
	rows, err := AblationOptimizers(build(t, e))
	if err != nil {
		t.Fatal(err)
	}
	seq, hier, hog := rows[0].Trace.LogLik, rows[1].Trace.Levels, rows[2].Trace.LogLik
	if len(seq) < 2 {
		t.Fatalf("sequential trajectory too short: %v", seq)
	}
	// Sequential trajectory must be monotone non-decreasing.
	for i := 1; i < len(seq); i++ {
		if seq[i] < seq[i-1]-1e-9 {
			t.Fatalf("sequential loglik decreased: %v", seq)
		}
	}
	if len(hier) == 0 {
		t.Fatal("hierarchical trajectory empty")
	}
	// The hierarchy must end at the root.
	if last := hier[len(hier)-1].Communities; last != 1 {
		t.Errorf("last level = %d communities", last)
	}
	if len(hog) != 6 {
		t.Errorf("hogwild epochs = %d", len(hog))
	}
	if s := RenderConvergence(rows); len(s) < 100 {
		t.Error("render too short")
	}
}

func TestSweepEarlyWindow(t *testing.T) {
	e := testSBM()
	e.MaxIter = 5
	w := build(t, e)
	res, err := SweepEarlyWindow(w, []float64{0.1, 0.3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fractions) == 0 {
		t.Fatal("no horizons evaluated")
	}
	for i := range res.Fractions {
		if res.F1[i] < 0 || res.F1[i] > 1 || res.Coverage[i] <= 0 || res.Coverage[i] > 1 {
			t.Fatalf("bad sweep row %d: %+v", i, res)
		}
	}
	// Coverage must not decrease as the horizon lengthens.
	for i := 1; i < len(res.Coverage); i++ {
		if res.Coverage[i] < res.Coverage[i-1]-1e-9 {
			t.Errorf("coverage decreased with a longer horizon: %v", res.Coverage)
		}
	}
	if _, err := SweepEarlyWindow(w, []float64{1.5}); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if s := res.Render(); len(s) < 50 {
		t.Error("render too short")
	}
}

func TestSweepTrainingSize(t *testing.T) {
	e := testSBM()
	e.MaxIter = 5
	res, err := SweepTrainingSize(build(t, e), []int{60, 150, 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainSizes) != 3 {
		t.Fatalf("sizes evaluated: %v", res.TrainSizes)
	}
	// More data must not catastrophically hurt held-out fit: the largest
	// training set should beat the smallest.
	first := res.HeldOutPerInfection[0]
	last := res.HeldOutPerInfection[len(res.HeldOutPerInfection)-1]
	if last < first-0.5 {
		t.Errorf("held-out fit degraded with more data: %v", res.HeldOutPerInfection)
	}
	if s := res.Render(); len(s) < 50 {
		t.Error("render too short")
	}
}

// TestLabSharesOneFit: at the scale of `figures -scale small`, the lab's
// tables read one core.Train fit of the workload and score its trio task
// under one CV seed, and the scaling figures schedule what core.Train
// fits.
//   - The trio rows (the feature ablation's, the workload's K, the
//     predictor families' embedding row, the horizon sweep at the
//     workload's horizon) and Figure 9's top-20 % row print one F1.
//   - The optimizer ablation's hierarchical row and the convergence
//     trajectory are core.Train's trace on the same draw, and the merge
//     ablation's by-community-count row is that trace cut at Q, which a
//     fit stopped at Q over the same partition reproduces.
//   - Each Figure 10 series is ScheduleCost over the levels of
//     core.Train stopped at Q (fitted here on one worker: the work
//     counts are the same at any worker count).
func TestLabSharesOneFit(t *testing.T) {
	e := testSBM()
	w := build(t, e)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	_, fig9, err := Figures6to9(w)
	if err != nil {
		t.Fatal(err)
	}
	feat, err := AblationFeatures(w)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := AblationTopicK(w, []int{1, e.InferK})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := ComparePredictors(w)
	if err != nil {
		t.Fatal(err)
	}
	early, err := SweepEarlyWindow(w, []float64{0.1, e.EarlyFrac})
	if err != nil {
		t.Fatal(err)
	}
	trio := map[string]float64{
		"feature ablation diverA+normA+maxA": feat[3].F1,
		"topic sweep K = InferK":             ks[1].F1,
		"predictor families embedding row":   preds[0].F1,
		"horizon sweep at EarlyFrac":         early.F1[1],
	}
	for name, f1 := range trio {
		if !same(f1, fig9.TopFracF1) {
			t.Errorf("%s prints F1 %v, Figure 9's top-20 %% row %v", name, f1, fig9.TopFracF1)
		}
	}

	sys, err := core.Train(w.Train, e.N, core.TrainConfig{
		Topics: e.InferK, MaxIter: e.MaxIter, Workers: e.Workers, Seed: e.Seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	levels := sys.Trace.Levels
	opt, err := AblationOptimizers(w)
	if err != nil {
		t.Fatal(err)
	}
	if hier := opt[1]; hier.Name != "hierarchical" || !reflect.DeepEqual(hier.Trace.Levels, levels) ||
		!same(hier.LogLik, levels[len(levels)-1].LogLik) {
		t.Errorf("optimizer row %q: levels %+v, train loglik %v; core.Train's trace %+v",
			hier.Name, hier.Trace.Levels, hier.LogLik, levels)
	}

	// At this scale the base partition already has at most the default
	// Q = 10 communities; Q = 3 cuts the trace two joins deeper.
	sc := DefaultScaling()
	for _, q := range []int{sc.Q, 3} {
		sc.Q = q
		merge, err := AblationMergePolicy(w, sc, 8)
		if err != nil {
			t.Fatal(err)
		}
		_, stopped, err := infer.Hierarchical(w.Train, e.N, sys.Partition,
			infer.Config{K: e.InferK, MaxIter: e.MaxIter, Seed: e.Seed + 1},
			infer.ParallelOptions{Workers: 1, Q: q, Policy: mergetree.ByCommunityCount})
		if err != nil {
			t.Fatal(err)
		}
		cut := stopped.Levels
		if !reflect.DeepEqual(cut, levels[:len(cut)]) || cut[len(cut)-1].Communities > q ||
			(len(cut) > 1 && cut[len(cut)-2].Communities <= q) {
			t.Fatalf("a fit stopped at Q = %d runs levels %+v, not a prefix of core.Train's %+v", q, cut, levels)
		}
		if row := merge[0]; !same(row.LogLik, cut[len(cut)-1].LogLik) ||
			!same(row.Seconds, ScheduleCost(cut, 8, sc.BarrierCost).Seconds()) {
			t.Errorf("Q = %d: by-community-count row %+v; the fit stopped at Q: loglik %v, %v s",
				q, row, cut[len(cut)-1].LogLik, ScheduleCost(cut, 8, sc.BarrierCost).Seconds())
		}
		t.Logf("Q = %d: merge ablation cut at %d levels", q, len(cut))
	}

	sc = DefaultScaling()
	sc.MaxIter = e.MaxIter
	series, err := Figure10(sc, e.N, []int{200, 400, 600})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		cs, err := drawScaling(sc, s.N, s.C)
		if err != nil {
			t.Fatal(err)
		}
		fit, err := core.Train(cs, s.N, core.TrainConfig{
			Topics: sc.InferK, MaxIter: sc.MaxIter, Workers: 1, Q: sc.Q, Seed: sc.Seed + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, cores := range s.Cores {
			if want := ScheduleCost(fit.Trace.Levels, cores, sc.BarrierCost).Seconds(); !same(s.Seconds[i], want) {
				t.Errorf("Figure 10 %s at %d cores: %v s, core.Train's levels schedule %v s", s.Label, cores, s.Seconds[i], want)
			}
		}
	}
	t.Logf("trio F1 %.3f; %d levels, root loglik %.1f", fig9.TopFracF1, len(levels), levels[len(levels)-1].LogLik)
}
