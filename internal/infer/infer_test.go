package infer

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/cooccur"
	"viralcast/internal/embed"
	"viralcast/internal/mergetree"
	"viralcast/internal/sbm"
	"viralcast/internal/slpa"
	"viralcast/internal/xrand"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if err := c.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	if c.K <= 0 || c.MaxIter <= 0 || c.InitHi <= c.InitLo {
		t.Fatalf("defaults unset: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{K: 7, MaxIter: 3, Tol: 0.1, InitLo: 1, InitHi: 2}.WithDefaults()
	if c2.K != 7 || c2.MaxIter != 3 || c2.Tol != 0.1 {
		t.Fatalf("defaults clobbered explicit values: %+v", c2)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{K: 0, MaxIter: 1, InitHi: 1},
		{K: 1, MaxIter: 0, InitHi: 1},
		{K: 1, MaxIter: 1, InitLo: 2, InitHi: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

// trainingSet simulates cascades from a planted model on an SBM graph.
func trainingSet(t testing.TB, n, nCascades int, seed uint64) ([]*cascade.Cascade, *embed.Model) {
	t.Helper()
	rng := xrand.New(seed)
	params := sbm.Params{N: n, BlockSize: 20, Alpha: 0.35, Beta: 0.01}
	g, _, err := sbm.Generate(params, rng)
	if err != nil {
		t.Fatal(err)
	}
	truth := embed.NewModel(n, 2)
	truth.InitUniform(rng, 0.3, 0.9)
	sim, err := cascade.NewSimulator(g, truth.A, truth.B, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sim.RunMany(0, nCascades, rng)
	if err != nil {
		t.Fatal(err)
	}
	return cs, truth
}

func TestSequentialImprovesLikelihood(t *testing.T) {
	cs, _ := trainingSet(t, 60, 80, 1)
	cfg := Config{K: 2, MaxIter: 30, Seed: 2}
	m, tr, err := Sequential(cs, 60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("fitted model invalid: %v", err)
	}
	if len(tr.LogLik) < 2 {
		t.Fatalf("no optimization progress recorded: %+v", tr)
	}
	for i := 1; i < len(tr.LogLik); i++ {
		if tr.LogLik[i] < tr.LogLik[i-1]-1e-9 {
			t.Fatalf("loglik decreased at step %d: %v -> %v", i, tr.LogLik[i-1], tr.LogLik[i])
		}
	}
	if tr.LogLik[len(tr.LogLik)-1] <= tr.LogLik[0] {
		t.Fatalf("no improvement: %v -> %v", tr.LogLik[0], tr.LogLik[len(tr.LogLik)-1])
	}
}

func TestSequentialDeterministic(t *testing.T) {
	cs, _ := trainingSet(t, 40, 40, 3)
	cfg := Config{K: 2, MaxIter: 10, Seed: 4}
	m1, _, err := Sequential(cs, 40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Sequential(cs, 40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1.A.FrobeniusDist(m2.A) != 0 || m1.B.FrobeniusDist(m2.B) != 0 {
		t.Fatal("same config, different results")
	}
}

func TestSequentialInputValidation(t *testing.T) {
	cs, _ := trainingSet(t, 20, 5, 5)
	if _, _, err := Sequential(cs, 0, Config{}); err == nil {
		t.Error("n=0 accepted")
	}
	bad := append(cs, &cascade.Cascade{Infections: []cascade.Infection{{Node: 99, Time: 0}}})
	if _, _, err := Sequential(bad, 20, Config{}); err == nil {
		t.Error("out-of-range cascade accepted")
	}
}

func TestSequentialGeneralizesToHeldOut(t *testing.T) {
	// The fitted model must explain unseen cascades from the same process
	// far better than an untrained model — the functional form of
	// "recovery" the downstream prediction pipeline relies on.
	cs, _ := trainingSet(t, 60, 500, 6)
	train, test := cs[:400], cs[400:]
	m, _, err := Sequential(train, 60, Config{K: 2, MaxIter: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	random := embed.NewModel(60, 2)
	random.InitUniform(xrand.New(99), 0.1, 0.5)
	fitted, untrained := m.LogLikAll(test), random.LogLikAll(test)
	if fitted <= untrained {
		t.Fatalf("held-out loglik: fitted %v <= untrained %v", fitted, untrained)
	}
	// The margin should be substantial, not a rounding artifact.
	if fitted-untrained < 0.1*math.Abs(untrained) {
		t.Errorf("held-out margin too small: fitted %v, untrained %v", fitted, untrained)
	}
}

func TestInferredRatesReflectCoOccurrence(t *testing.T) {
	// Pairs that frequently appear in sequence in cascades should carry
	// higher inferred rates than pairs that never co-occur.
	cs, _ := trainingSet(t, 60, 300, 25)
	m, _, err := Sequential(cs, 60, Config{K: 2, MaxIter: 60, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	pairCount := map[[2]int]int{}
	for _, c := range cs {
		for i := 0; i < c.Size(); i++ {
			for j := i + 1; j < c.Size(); j++ {
				pairCount[[2]int{c.Infections[i].Node, c.Infections[j].Node}]++
			}
		}
	}
	var frequent, never []float64
	for u := 0; u < 60; u++ {
		for v := 0; v < 60; v++ {
			if u == v {
				continue
			}
			cnt := pairCount[[2]int{u, v}]
			switch {
			case cnt >= 20:
				frequent = append(frequent, m.Rate(u, v))
			case cnt == 0:
				never = append(never, m.Rate(u, v))
			}
		}
	}
	if len(frequent) == 0 || len(never) == 0 {
		t.Skip("degenerate split of pairs; adjust workload")
	}
	if mean(frequent) <= mean(never) {
		t.Errorf("frequent-pair mean rate %v <= never-pair mean rate %v",
			mean(frequent), mean(never))
	}
}

func mean(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func TestSplitCascades(t *testing.T) {
	p := slpa.FromMembership([]int{0, 0, 1, 1, 1})
	c := &cascade.Cascade{ID: 9, Infections: []cascade.Infection{
		{Node: 0, Time: 0}, {Node: 2, Time: 1}, {Node: 1, Time: 2}, {Node: 4, Time: 3},
	}}
	subs := SplitCascades([]*cascade.Cascade{c}, p)
	if len(subs) != 2 {
		t.Fatalf("want 2 community buckets, got %d", len(subs))
	}
	// Community 0 gets nodes {0,1}, community 1 gets {2,4}.
	if len(subs[0]) != 1 || len(subs[1]) != 1 {
		t.Fatalf("sub-cascade counts: %d, %d", len(subs[0]), len(subs[1]))
	}
	s0 := subs[0][0]
	if s0.ID != 9 || s0.Size() != 2 || s0.Infections[0].Node != 0 || s0.Infections[1].Node != 1 {
		t.Fatalf("community 0 sub-cascade wrong: %+v", s0.Infections)
	}
	// Absolute times preserved.
	if s0.Infections[1].Time != 2 {
		t.Fatalf("sub-cascade time not preserved: %+v", s0.Infections)
	}
	s1 := subs[1][0]
	if s1.Infections[0].Node != 2 || s1.Infections[1].Node != 4 {
		t.Fatalf("community 1 sub-cascade wrong: %+v", s1.Infections)
	}
}

func TestSplitCascadesDropsSingletons(t *testing.T) {
	p := slpa.FromMembership([]int{0, 1})
	c := &cascade.Cascade{Infections: []cascade.Infection{{Node: 0, Time: 0}, {Node: 1, Time: 1}}}
	subs := SplitCascades([]*cascade.Cascade{c}, p)
	if len(subs[0]) != 0 || len(subs[1]) != 0 {
		t.Fatal("singleton sub-cascades must be dropped")
	}
}

func TestSplitCascadesSingleCommunityKeepsCascadeIntact(t *testing.T) {
	p := slpa.FromMembership([]int{0, 0, 0})
	c := &cascade.Cascade{ID: 3, Infections: []cascade.Infection{
		{Node: 1, Time: 0}, {Node: 0, Time: 1}, {Node: 2, Time: 2},
	}}
	subs := SplitCascades([]*cascade.Cascade{c}, p)
	if len(subs) != 1 || len(subs[0]) != 1 {
		t.Fatalf("want 1 bucket with 1 sub-cascade, got %v", subs)
	}
	got := subs[0][0]
	if got.ID != 3 || got.Size() != 3 {
		t.Fatalf("sub-cascade = %+v", got)
	}
	for i, inf := range got.Infections {
		if inf != c.Infections[i] {
			t.Fatalf("infection %d changed: %+v vs %+v", i, inf, c.Infections[i])
		}
	}
}

func TestSplitCascadesEmptyInput(t *testing.T) {
	subs := SplitCascades(nil, slpa.FromMembership([]int{0, 1, 2}))
	if len(subs) != 3 {
		t.Fatalf("want one bucket per community, got %d", len(subs))
	}
	for r, bucket := range subs {
		if len(bucket) != 0 {
			t.Errorf("community %d bucket not empty: %v", r, bucket)
		}
	}
}

func TestSplitCascadesMixedKeepAndDrop(t *testing.T) {
	// Community 0 receives a usable pair; community 1's lone node is a
	// singleton sub-cascade and must be dropped.
	p := slpa.FromMembership([]int{0, 0, 1})
	c := &cascade.Cascade{ID: 7, Infections: []cascade.Infection{
		{Node: 0, Time: 0}, {Node: 2, Time: 1}, {Node: 1, Time: 2},
	}}
	subs := SplitCascades([]*cascade.Cascade{c}, p)
	if len(subs[0]) != 1 || subs[0][0].Size() != 2 {
		t.Fatalf("community 0 should keep a pair, got %v", subs[0])
	}
	if len(subs[1]) != 0 {
		t.Fatalf("community 1 singleton not dropped: %v", subs[1])
	}
}

func TestRunLevelSingleCommunityMatchesSequentialAscend(t *testing.T) {
	cs, _ := trainingSet(t, 30, 30, 9)
	cfg := Config{K: 2, MaxIter: 10, Seed: 10}.WithDefaults()
	// Sequential path.
	seq := embed.NewModel(30, 2)
	seq.InitUniform(xrand.New(cfg.Seed), cfg.InitLo, cfg.InitHi)
	fit, err := emCtx(context.Background(), seq, cs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// runLevel with the trivial one-community partition and same init.
	par := embed.NewModel(30, 2)
	par.InitUniform(xrand.New(cfg.Seed), cfg.InitLo, cfg.InitHi)
	p := slpa.FromMembership(make([]int, 30))
	work, err := runLevel(context.Background(), par, cs, p, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := seq.A.FrobeniusDist(par.A); d > 1e-9 {
		t.Fatalf("one-community runLevel differs from sequential ascend: dA=%v", d)
	}
	if d := seq.B.FrobeniusDist(par.B); d > 1e-9 {
		t.Fatalf("one-community runLevel differs from sequential ascend: dB=%v", d)
	}
	// The task's work is its infections (cascades of two or more, the
	// sub-cascades Algorithm 1 keeps) times the sweeps emCtx ran.
	infections := 0
	for _, c := range cs {
		if c.Size() >= 2 {
			infections += c.Size()
		}
	}
	if fit.sweeps == 0 || len(work) != 1 || work[0] != fit.sweeps*infections {
		t.Fatalf("work %v, want [%d sweeps x %d infections]", work, fit.sweeps, infections)
	}
}

func TestRunLevelWorkerCountInvariance(t *testing.T) {
	// The result must be identical no matter how many workers run,
	// because communities touch disjoint rows.
	cs, _ := trainingSet(t, 60, 60, 11)
	p := slpa.FromMembership(blockMembership(60, 20))
	cfg := Config{K: 2, MaxIter: 8, Seed: 12}.WithDefaults()
	var ref *embed.Model
	for _, workers := range []int{1, 2, 3, 8} {
		m := embed.NewModel(60, 2)
		m.InitUniform(xrand.New(cfg.Seed), cfg.InitLo, cfg.InitHi)
		if _, err := runLevel(context.Background(), m, cs, p, cfg, workers); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = m
			continue
		}
		if ref.A.FrobeniusDist(m.A) != 0 || ref.B.FrobeniusDist(m.B) != 0 {
			t.Fatalf("workers=%d result differs from workers=1", workers)
		}
	}
}

// The lab schedules a one-worker run's Trace.Levels onto w modeled
// workers: that run is the parallel run's model, level for level, work
// count for work count.
func TestHierarchicalProfiledMatchesHierarchical(t *testing.T) {
	cs, _ := trainingSet(t, 60, 80, 31)
	base := slpa.FromMembership(blockMembership(60, 10))
	cfg := Config{K: 2, MaxIter: 8, Seed: 32}
	mPar, trPar, err := Hierarchical(cs, 60, base, cfg, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	mProf, tr, err := Hierarchical(cs, 60, base, cfg, ParallelOptions{Workers: 1, Policy: mergetree.ByCommunityCount})
	if err != nil {
		t.Fatal(err)
	}
	if mPar.A.FrobeniusDist(mProf.A) != 0 || mPar.B.FrobeniusDist(mProf.B) != 0 {
		t.Fatal("one-worker run produced a different model than the parallel run")
	}
	// Levels 6 -> 3 -> 2 -> 1.
	if len(tr.Levels) != 4 || len(trPar.Levels) != 4 {
		t.Fatalf("levels = %d (one worker), %d (four)", len(tr.Levels), len(trPar.Levels))
	}
	for i, l := range tr.Levels {
		p := trPar.Levels[i]
		if l.Communities != p.Communities || l.LogLik != p.LogLik ||
			!slices.Equal(l.TaskWork, p.TaskWork) || len(l.TaskWork) == 0 {
			t.Errorf("level %d: one worker %+v, four %+v", i, l, p)
		}
		for _, w := range l.TaskWork {
			if w <= 0 {
				t.Errorf("level %d: task work %v", i, l.TaskWork)
			}
		}
	}
	if tr.Levels[len(tr.Levels)-1].Communities != 1 {
		t.Error("last level should be the root community")
	}
}

func blockMembership(n, blockSize int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i / blockSize
	}
	return out
}

func TestRunLevelImprovesCommunityLikelihood(t *testing.T) {
	cs, _ := trainingSet(t, 60, 80, 13)
	p := slpa.FromMembership(blockMembership(60, 20))
	cfg := Config{K: 2, MaxIter: 15, Seed: 14}.WithDefaults()
	m := embed.NewModel(60, 2)
	m.InitUniform(xrand.New(cfg.Seed), cfg.InitLo, cfg.InitHi)
	subs := SplitCascades(cs, p)
	var flat []*cascade.Cascade
	for _, s := range subs {
		flat = append(flat, s...)
	}
	before := m.LogLikAll(flat)
	if _, err := runLevel(context.Background(), m, cs, p, cfg, 3); err != nil {
		t.Fatal(err)
	}
	after := m.LogLikAll(flat)
	if after <= before {
		t.Fatalf("runLevel did not improve sub-cascade loglik: %v -> %v", before, after)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchical(t *testing.T) {
	cs, _ := trainingSet(t, 60, 100, 15)
	base := slpa.FromMembership(blockMembership(60, 10)) // 6 communities
	cfg := Config{K: 2, MaxIter: 10, Seed: 16}
	m, tr, err := Hierarchical(cs, 60, base, cfg, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Levels: 6 -> 3 -> 2 -> 1.
	wantLevels := []int{6, 3, 2, 1}
	if len(tr.Levels) != len(wantLevels) {
		t.Fatalf("levels = %d, want %d (%+v)", len(tr.Levels), len(wantLevels), tr.Levels)
	}
	for i, want := range wantLevels {
		if tr.Levels[i].Communities != want {
			t.Errorf("level %d communities = %d, want %d", i, tr.Levels[i].Communities, want)
		}
	}
	// Warm-started refinement should leave the final model at least as
	// good (on the full likelihood) as a freshly initialized one.
	fresh := embed.NewModel(60, 2)
	fresh.InitUniform(xrand.New(cfg.Seed), 0.1, 0.5)
	if m.LogLikAll(cs) <= fresh.LogLikAll(cs) {
		t.Error("hierarchical result no better than initialization")
	}
}

func TestHierarchicalQStopsEarly(t *testing.T) {
	cs, _ := trainingSet(t, 60, 40, 17)
	base := slpa.FromMembership(blockMembership(60, 10))
	m, tr, err := Hierarchical(cs, 60, base, Config{K: 2, MaxIter: 5, Seed: 18},
		ParallelOptions{Workers: 2, Q: 3})
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Levels[len(tr.Levels)-1]
	if last.Communities > 3 {
		t.Fatalf("Q=3 but last level has %d communities", last.Communities)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalCloseToSequential(t *testing.T) {
	// The paper's claim: parallelization preserves quality. Compare final
	// full-data log-likelihood per infection.
	cs, _ := trainingSet(t, 60, 150, 19)
	seqM, _, err := Sequential(cs, 60, Config{K: 2, MaxIter: 40, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	base := slpa.FromMembership(blockMembership(60, 10))
	hierM, _, err := Hierarchical(cs, 60, base, Config{K: 2, MaxIter: 40, Seed: 20},
		ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seqLL := seqM.LogLikAll(cs)
	hierLL := hierM.LogLikAll(cs)
	// Hierarchical ends with a full sequential polish at the root, so it
	// should land near the sequential optimum (both are local ascents
	// from different paths; the paper claims accuracy is preserved, not
	// bit-identical optima).
	if hierLL < seqLL-0.10*math.Abs(seqLL) {
		t.Errorf("hierarchical loglik %v much worse than sequential %v", hierLL, seqLL)
	}
}

func TestHogwild(t *testing.T) {
	cs, _ := trainingSet(t, 40, 60, 21)
	m, tr, err := Hogwild(cs, 40, Config{K: 2, Seed: 22},
		HogwildOptions{Workers: 4, Epochs: 5, LearnRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("hogwild model invalid: %v", err)
	}
	if len(tr.LogLik) != 5 {
		t.Fatalf("epochs recorded = %d", len(tr.LogLik))
	}
	if tr.LogLik[len(tr.LogLik)-1] <= tr.LogLik[0]-1 {
		t.Errorf("hogwild likelihood degraded: %v", tr.LogLik)
	}
}

func TestHogwildValidation(t *testing.T) {
	if _, _, err := Hogwild(nil, 0, Config{}, HogwildOptions{}); err == nil {
		t.Error("n=0 accepted")
	}
}

// TestPipelineEndToEnd runs the paper's inference stack on raw cascades
// the way core.TrainCtx composes it: the co-occurrence graph (§IV-B),
// SLPA communities, then the hierarchical community-parallel fit.
func TestPipelineEndToEnd(t *testing.T) {
	cs, _ := trainingSet(t, 60, 120, 23)
	cfg := Config{K: 2, MaxIter: 8, Seed: 24}
	g, err := cooccur.Build(cs, 60, cooccur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	part := slpa.Detect(g, slpa.Options{}, xrand.New(cfg.Seed^0x5eed))
	m, tr, err := Hierarchical(cs, 60, part, cfg, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(60); err != nil {
		t.Fatal(err)
	}
	if len(tr.Levels) == 0 {
		t.Fatal("no levels recorded")
	}
	if tr.Levels[len(tr.Levels)-1].Communities != 1 {
		t.Error("pipeline did not finish at the root community")
	}
}

func TestAscendEmptyCascades(t *testing.T) {
	m := embed.NewModel(5, 2)
	fit, err := emCtx(context.Background(), m, nil, Config{}.WithDefaults())
	if fit.epochs != 0 || fit.sweeps != 0 || fit.lls != nil || err != nil {
		t.Fatal("EM on empty cascades must be a no-op")
	}
	tr, err := Refine(m, nil, Config{K: 2})
	if err != nil || tr.Iters != 0 || tr.LogLik != nil {
		t.Fatal("a refit on no cascades must be a no-op")
	}
}

func TestAtomicMatrix(t *testing.T) {
	m := newAtomicMatrix(2, 2)
	m.store(0, 1, 3.5)
	if m.load(0, 1) != 3.5 {
		t.Fatal("store/load roundtrip failed")
	}
	m.addClamp(0, 1, -10)
	if m.load(0, 1) != 0 {
		t.Fatalf("addClamp should clamp to 0, got %v", m.load(0, 1))
	}
	m.addClamp(0, 1, 2)
	if m.load(0, 1) != 2 {
		t.Fatalf("addClamp add failed: %v", m.load(0, 1))
	}
	snap := m.snapshot()
	if snap.At(0, 1) != 2 || snap.At(1, 1) != 0 {
		t.Fatal("snapshot wrong")
	}
}

// tiedSet is trainingSet with about a quarter of the infections moved to
// the time of the one before: ties within a cascade are legal, and under
// EM they give zero exposures that the M-step must leave alone.
func tiedSet(t testing.TB, n, nCascades int, seed uint64) []*cascade.Cascade {
	cs, _ := trainingSet(t, n, nCascades, seed)
	rng := xrand.New(seed ^ 0x71ed)
	for _, c := range cs {
		for i := 1; i < c.Size(); i++ {
			if rng.Intn(4) == 0 {
				c.Infections[i].Time = c.Infections[i-1].Time
			}
		}
	}
	return cs
}

// Property: an ECM epoch never lowers the objective it maximizes, the
// log-likelihood penalized by the rate prior (the trace's values), at
// every width the kernels treat differently, run well past the usual
// stopping point — from a random start (Sequential) and warm-started
// from that fit on a grown corpus (Refine, the online refit). The only
// slack is the rounding of a sum over the cascades.
func TestSequentialEMNeverLowersLogLik(t *testing.T) {
	cs := tiedSet(t, 60, 120, 47)
	grown := append(tiedSet(t, 60, 40, 48), cs...)
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16} {
		cfg := Config{K: k, MaxIter: 60, Tol: 1e-14, Seed: uint64(k)}
		m, tr, err := Sequential(cs, 60, cfg)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		assertMonotone(t, fmt.Sprintf("K=%d cold", k), tr, 10)
		if tr, err = Refine(m, grown, cfg); err != nil {
			t.Fatalf("K=%d warm: %v", k, err)
		}
		assertMonotone(t, fmt.Sprintf("K=%d warm", k), tr, 1)
	}
}

// assertMonotone fails t unless the EM trace has at least minIters
// epochs, one objective per epoch plus the start, never falls and ends
// above its start.
func assertMonotone(t *testing.T, fit string, tr *Trace, minIters int) {
	t.Helper()
	if tr.Iters < minIters || len(tr.LogLik) != tr.Iters+1 {
		t.Fatalf("%s: %d epochs, %d likelihoods", fit, tr.Iters, len(tr.LogLik))
	}
	for i := 1; i < len(tr.LogLik); i++ {
		prev, cur := tr.LogLik[i-1], tr.LogLik[i]
		if cur < prev-1e-12*(1+math.Abs(prev)) {
			t.Fatalf("%s: epoch %d lowered the penalized log-likelihood %v -> %v", fit, i, prev, cur)
		}
	}
	if tr.LogLik[tr.Iters] <= tr.LogLik[0] {
		t.Fatalf("%s: no progress: %v", fit, tr.LogLik)
	}
}

// sequentialGolden and hogwildGolden pin the fits below (assertPinned),
// recorded at the commit before Sequential and Hogwild lost their
// checkpoint and resume paths: both keep their output to the bit.
const (
	sequentialGolden = "f08d8802926ecd4e6f30fd9829b09c4ef4edc8e60a0a9b11c6e86aa88aa713e5"
	hogwildGolden    = "d8d5ba93cf958f3d05daeeda01fda76fded87396f3b6e622d6fa72c749506195"
)

func TestSequentialPinned(t *testing.T) {
	cs, _ := trainingSet(t, 60, 150, 45)
	m, tr, err := Sequential(cs, 60, Config{K: 3, MaxIter: 12, Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, "Sequential", m, tr, sequentialGolden)
}

func TestHogwildPinned(t *testing.T) {
	cs, _ := trainingSet(t, 60, 150, 47)
	m, tr, err := Hogwild(cs, 60, Config{K: 3, Seed: 48}, HogwildOptions{Workers: 1, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, "Hogwild", m, tr, hogwildGolden)
}
