package core

import (
	"bytes"
	"strings"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
	"viralcast/internal/eval"
	"viralcast/internal/sbm"
	"viralcast/internal/xrand"
)

// workload simulates cascades from a planted model on a small SBM graph.
func workload(t *testing.T, n, count int, seed uint64) []*cascade.Cascade {
	t.Helper()
	rng := xrand.New(seed)
	g, _, err := sbm.Generate(sbm.Params{N: n, BlockSize: 20, Alpha: 0.3, Beta: 0.01}, rng)
	if err != nil {
		t.Fatal(err)
	}
	truth := embed.NewModel(n, 2)
	truth.InitUniform(rng, 0.2, 0.8)
	sim, err := cascade.NewSimulator(g, truth.A, truth.B, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sim.RunMany(0, count, rng)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestTrain(t *testing.T) {
	cs := workload(t, 80, 150, 1)
	sys, err := Train(cs, 80, TrainConfig{Topics: 2, MaxIter: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sys.N != 80 {
		t.Fatalf("N = %d", sys.N)
	}
	if err := sys.Embeddings.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Partition.Validate(80); err != nil {
		t.Fatal(err)
	}
	if len(sys.Trace.Levels) == 0 {
		t.Fatal("no trace recorded")
	}
	if last := sys.Trace.Levels[len(sys.Trace.Levels)-1]; last.Communities != 1 {
		t.Errorf("the fit ended at %d communities, not the root", last.Communities)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, 10, TrainConfig{}); err == nil {
		t.Error("empty cascades accepted")
	}
	if _, err := Train(workload(t, 20, 5, 3), 0, TrainConfig{}); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestRate(t *testing.T) {
	cs := workload(t, 60, 100, 4)
	sys, err := Train(cs, 60, TrainConfig{Topics: 2, MaxIter: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := sys.Embeddings.Rate(3, 4)
	if got := sys.Rate(3, 4); got != want {
		t.Fatalf("Rate = %v, want %v", got, want)
	}
}

func TestTopInfluencers(t *testing.T) {
	cs := workload(t, 60, 120, 6)
	sys, err := Train(cs, 60, TrainConfig{Topics: 2, MaxIter: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	top := sys.TopInfluencers(5)
	if len(top) != 5 {
		t.Fatalf("got %d influencers", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("influencers not sorted by score")
		}
	}
	// Top influencer should actually have a larger total-A than a random
	// node's (sanity of the ranking semantics).
	all := sys.TopInfluencers(60)
	if all[0].Score < all[59].Score {
		t.Fatal("ranking inverted")
	}
	if top[0].TopTopic < 0 || top[0].TopTopic >= 2 {
		t.Fatalf("TopTopic out of range: %+v", top[0])
	}
}

func TestPredictorRoundtrip(t *testing.T) {
	cs := workload(t, 80, 300, 8)
	train, test := cs[:200], cs[200:]
	sys, err := Train(train, 80, TrainConfig{Topics: 2, MaxIter: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sizes := cascade.Sizes(train)
	thr := eval.TopFractionThreshold(sizes, 0.3)
	if thr < 2 {
		thr = 2
	}
	pred, err := sys.TrainPredictor(train, 0.5, thr)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Threshold() != thr {
		t.Fatalf("Threshold = %d", pred.Threshold())
	}
	conf, err := pred.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	total := conf.TP + conf.FP + conf.TN + conf.FN
	if total == 0 {
		t.Fatal("no cascades evaluated")
	}
	// The classifier must be meaningfully better than coin flipping on
	// this in-distribution task.
	if conf.Accuracy() < 0.5 {
		t.Errorf("accuracy %.3f below chance: %+v", conf.Accuracy(), conf)
	}
}

// TestDefaultEarlyCutoff: 2/7 of the latest last-infection time, whichever
// cascade holds it; an empty cascade contributes nothing.
func TestDefaultEarlyCutoff(t *testing.T) {
	cs := []*cascade.Cascade{
		{ID: 1, Infections: []cascade.Infection{{Node: 0, Time: 1}, {Node: 1, Time: 3.5}}},
		{ID: 2},
		{ID: 3, Infections: []cascade.Infection{{Node: 2, Time: 2}}},
	}
	if got, want := DefaultEarlyCutoff(cs), 3.5*2/7; got != want {
		t.Fatalf("DefaultEarlyCutoff = %v, want %v", got, want)
	}
	if got := DefaultEarlyCutoff(nil); got != 0 {
		t.Fatalf("DefaultEarlyCutoff(nil) = %v, want 0", got)
	}
}

func TestPredictorErrors(t *testing.T) {
	cs := workload(t, 60, 100, 10)
	sys, err := Train(cs, 60, TrainConfig{Topics: 2, MaxIter: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrainPredictor(cs, 0, 3); err == nil {
		t.Error("zero cutoff accepted")
	}
	if _, err := sys.TrainPredictor(cs, 0.5, 1<<30); err == nil {
		t.Error("unreachable threshold accepted")
	}
	pred, err := sys.TrainPredictor(cs, 0.5, 3)
	if err != nil {
		t.Skip("workload degenerate for this seed")
	}
	late := &cascade.Cascade{Infections: []cascade.Infection{{Node: 1, Time: 99}}}
	if _, _, err := pred.PredictViral(late); err == nil {
		t.Error("cascade starting after cutoff accepted")
	}
}

func TestFeaturesMethod(t *testing.T) {
	cs := workload(t, 60, 80, 12)
	sys, err := Train(cs, 60, TrainConfig{Topics: 2, MaxIter: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := sys.Features(cs[0].Prefix(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if fs.EarlyCount < 1 {
		t.Fatalf("features = %+v", fs)
	}
}

func TestUpdateRefinesOnNewData(t *testing.T) {
	cs := workload(t, 60, 200, 14)
	old, fresh := cs[:120], cs[120:]
	sys, err := Train(old, 60, TrainConfig{Topics: 2, MaxIter: 8, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Embeddings.LogLikAll(fresh)
	if err := sys.Update(cs); err != nil { // the corpus and the new cascades
		t.Fatal(err)
	}
	after := sys.Embeddings.LogLikAll(fresh)
	if after <= before {
		t.Fatalf("Update did not improve new-cascade fit: %v -> %v", before, after)
	}
	if err := sys.Update(nil); err == nil {
		t.Error("empty update accepted")
	}
}

func TestSaveLoadSystem(t *testing.T) {
	cs := workload(t, 60, 120, 16)
	sys, err := Train(cs, 60, TrainConfig{Topics: 2, MaxIter: 6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveEmbeddings(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(&buf, TrainConfig{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N != 60 {
		t.Fatalf("loaded N = %d", loaded.N)
	}
	if sys.Embeddings.A.FrobeniusDist(loaded.Embeddings.A) != 0 {
		t.Fatal("loaded embeddings differ")
	}
	// The loaded system must support the full inference-time surface.
	if top := loaded.TopInfluencers(3); len(top) != 3 {
		t.Fatal("TopInfluencers on loaded system failed")
	}
	pred, err := loaded.TrainPredictor(cs, 0.5, 3)
	if err != nil {
		t.Skipf("workload degenerate for predictor: %v", err)
	}
	if _, _, err := pred.PredictViral(cs[0]); err != nil {
		t.Fatal(err)
	}
}

func TestSelectSeeds(t *testing.T) {
	cs := workload(t, 60, 150, 18)
	sys, err := Train(cs, 60, TrainConfig{Topics: 2, MaxIter: 8, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := sys.SelectSeeds(3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 3 {
		t.Fatalf("selected %d seeds", len(seeds))
	}
	ids := make([]int, len(seeds))
	for i, s := range seeds {
		ids[i] = s.Node
	}
	cov, err := sys.ExpectedCoverage(ids, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d := cov - seeds[len(seeds)-1].Total; d > 1e-6 || d < -1e-6 {
		t.Fatalf("coverage mismatch: %v vs %v", cov, seeds[len(seeds)-1].Total)
	}
	// Greedy seeds must beat the three least-influential nodes.
	bottom := sys.TopInfluencers(60)
	worst := []int{bottom[57].Node, bottom[58].Node, bottom[59].Node}
	worstCov, err := sys.ExpectedCoverage(worst, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if cov <= worstCov {
		t.Errorf("greedy coverage %v <= bottom-influencer coverage %v", cov, worstCov)
	}
}

func TestSaveEmbeddingsIsVersioned(t *testing.T) {
	cs := workload(t, 60, 120, 16)
	sys, err := Train(cs, 60, TrainConfig{Topics: 2, MaxIter: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveEmbeddings(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), embed.SignedMagic+"\n") {
		t.Fatalf("SaveEmbeddings output lacks the version envelope: %q",
			strings.SplitN(buf.String(), "\n", 2)[0])
	}

	// Foreign files are rejected with a clear error.
	if _, err := LoadSystem(strings.NewReader("%PDF-1.4 not a model\n"), TrainConfig{}); err == nil ||
		!strings.Contains(err.Error(), "not a viralcast embeddings file") {
		t.Errorf("foreign load err = %v", err)
	}
	// So are truncated ones.
	trunc := buf.Bytes()[:buf.Len()-25]
	if _, err := LoadSystem(bytes.NewReader(trunc), TrainConfig{}); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated load err = %v", err)
	}
	// Legacy bare-CSV files from before the envelope still load.
	var legacy bytes.Buffer
	if err := sys.Embeddings.Write(&legacy); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(&legacy, TrainConfig{})
	if err != nil {
		t.Fatalf("legacy CSV rejected: %v", err)
	}
	if loaded.N != 60 {
		t.Fatalf("legacy load N = %d", loaded.N)
	}
}

func TestForkIsolatesEmbeddings(t *testing.T) {
	cs := workload(t, 60, 140, 21)
	sys, err := Train(cs, 60, TrainConfig{Topics: 2, MaxIter: 4, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Embeddings.Clone()
	fork := sys.Fork()
	if fork.N != sys.N || fork.Embeddings == sys.Embeddings {
		t.Fatal("Fork must copy the embeddings into a distinct model")
	}
	if err := fork.Update(cs[:40]); err != nil {
		t.Fatal(err)
	}
	if sys.Embeddings.A.FrobeniusDist(before.A) != 0 ||
		sys.Embeddings.B.FrobeniusDist(before.B) != 0 {
		t.Fatal("updating the fork mutated the original system")
	}
	if fork.Embeddings.A.FrobeniusDist(before.A) == 0 &&
		fork.Embeddings.B.FrobeniusDist(before.B) == 0 {
		t.Fatal("Update on the fork changed nothing")
	}
}

func TestNewSystemWrapsModel(t *testing.T) {
	m := embed.NewModel(5, 3)
	rng := xrand.New(1)
	m.InitUniform(rng, 0.1, 0.5)
	sys := NewSystem(m, TrainConfig{Seed: 9})
	if sys.N != 5 || sys.Embeddings.K() != 3 {
		t.Fatalf("NewSystem = %d nodes x %d topics", sys.N, sys.Embeddings.K())
	}
	if sys.Rate(0, 1) <= 0 {
		t.Fatal("wrapped system cannot serve rates")
	}
	if top := sys.TopInfluencers(2); len(top) != 2 {
		t.Fatal("wrapped system cannot rank influencers")
	}
}
