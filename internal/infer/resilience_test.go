package infer

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/checkpoint"
	"viralcast/internal/embed"
	"viralcast/internal/pool"
	"viralcast/internal/slpa"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// --- context cancellation ---------------------------------------------------

func TestRunLevelCtxPreCanceled(t *testing.T) {
	cs, _ := trainingSet(t, 30, 30, 23)
	m := embed.NewModel(30, 2)
	cfg := Config{K: 2, MaxIter: 5, Seed: 1}.WithDefaults()
	m.InitUniform(xrand.New(cfg.Seed), cfg.InitLo, cfg.InitHi)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runLevel(ctx, m, cs, slpa.FromMembership(make([]int, 30)), cfg, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// n-th call on: a SIGINT landing at an exact point of a fit, whatever
// the worker schedule, since every fit reads Err a fixed number of times
// per level. Its Done channel never closes; the fits poll Err.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	return &cancelAfter{Context: context.Background(), n: n}
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// --- resume -----------------------------------------------------------------

func TestHierarchicalResumeRejectsMismatchedState(t *testing.T) {
	cs, _ := trainingSet(t, 30, 30, 26)
	base := slpa.FromMembership(blockMembership(30, 10))
	resumeFrom := func(st *checkpoint.State) error {
		path := filepath.Join(t.TempDir(), "fit.ckpt")
		if err := checkpoint.Save(path, st); err != nil {
			t.Fatal(err)
		}
		_, _, err := HierarchicalCtx(context.Background(), cs, 30, base, Config{K: 2, Seed: 1}, ParallelOptions{}, Resilience{Path: path, Resume: true})
		return err
	}
	if err := resumeFrom(&checkpoint.State{Model: embed.NewModel(10, 2), Seed: 1}); err == nil || !strings.Contains(err.Error(), "resume model") {
		t.Fatalf("mismatched model accepted: %v", err)
	}
	rightM := embed.NewModel(30, 2)
	rightM.InitUniform(xrand.New(1), 0.1, 0.5)
	if err := resumeFrom(&checkpoint.State{Model: rightM, Seed: 99}); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("mismatched seed accepted: %v", err)
	}
	_, _, err := HierarchicalCtx(context.Background(), cs, 30, base, Config{K: 2, Seed: 1}, ParallelOptions{}, Resilience{Resume: true})
	if err == nil || !strings.Contains(err.Error(), "Resume requires") {
		t.Fatalf("resume without a path accepted: %v", err)
	}
}

// TestHierarchicalInterruptResumeMatchesUninterrupted is the headline
// recovery guarantee: a run stopped mid-level (a context that cancels at
// an exact Err call, standing in for SIGINT) leaves a checkpoint behind,
// and resuming from that file produces a final model bit-identical to a
// never-interrupted run — so held-out metrics match trivially.
func TestHierarchicalInterruptResumeMatchesUninterrupted(t *testing.T) {
	train, _ := trainingSet(t, 60, 120, 27)
	heldOut, _ := trainingSet(t, 60, 40, 28)
	base := slpa.FromMembership(blockMembership(60, 20))
	cfg := Config{K: 2, MaxIter: 12, Seed: 7}
	opts := ParallelOptions{Workers: 2}

	// Reference: uninterrupted run.
	want, wantTr, err := Hierarchical(train, 60, base, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the 56th of the run's 84 Err calls cancels it,
	// inside its second level.
	res := Resilience{Path: filepath.Join(t.TempDir(), "train.ckpt")}
	_, _, err = HierarchicalCtx(newCancelAfter(56), train, 60, base, cfg, opts, res)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	// The interruption must have left a durable, loadable checkpoint of a
	// level boundary strictly inside the run.
	st, err := checkpoint.Load(res.Path)
	if err != nil {
		t.Fatalf("no usable checkpoint after interruption: %v", err)
	}
	if st.Level <= 0 || st.Level >= len(wantTr.Levels) {
		t.Fatalf("checkpoint at level %d of %d: the interruption missed the run", st.Level, len(wantTr.Levels))
	}

	// Resume and finish.
	res.Resume = true
	got, tr, err := HierarchicalCtx(context.Background(), train, 60, base, cfg, opts, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Levels) != len(wantTr.Levels)-st.Level {
		t.Fatalf("resume ran %d levels, want the %d after level %d", len(tr.Levels), len(wantTr.Levels)-st.Level, st.Level)
	}
	if d := want.A.FrobeniusDist(got.A) + want.B.FrobeniusDist(got.B); d != 0 {
		t.Fatalf("resumed model differs from uninterrupted run: frobenius %v", d)
	}
	wantLL, gotLL := want.LogLikAll(heldOut), got.LogLikAll(heldOut)
	if math.Abs(wantLL-gotLL) > 1e-9*(1+math.Abs(wantLL)) {
		t.Fatalf("held-out loglik diverged: %v vs %v", wantLL, gotLL)
	}
}

func TestHierarchicalResumeFromCompletedRunIsIdentity(t *testing.T) {
	train, _ := trainingSet(t, 40, 60, 29)
	base := slpa.FromMembership(blockMembership(40, 20))
	cfg := Config{K: 2, MaxIter: 6, Seed: 9}
	res := Resilience{Path: filepath.Join(t.TempDir(), "fit.ckpt")}
	want, _, err := HierarchicalCtx(context.Background(), train, 40, base, cfg, ParallelOptions{Workers: 2}, res)
	if err != nil {
		t.Fatal(err)
	}
	res.Resume = true
	got, tr, err := HierarchicalCtx(context.Background(), train, 40, base, cfg, ParallelOptions{Workers: 2}, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Levels) != 0 {
		t.Fatalf("fully-trained resume re-ran %d levels", len(tr.Levels))
	}
	if want.A.FrobeniusDist(got.A) != 0 || want.B.FrobeniusDist(got.B) != 0 {
		t.Fatal("resume of a completed run altered the model")
	}
}

// --- divergence guards ------------------------------------------------------

// TestDivergenceGuardGivesUpWithDescriptiveError feeds EM a valid
// cascade whose infection times sit near the top of the float64 range:
// its exposures overflow, the first E-step's sums go non-finite, and the
// fit fails at once instead of emitting garbage.
func TestDivergenceGuardGivesUpWithDescriptiveError(t *testing.T) {
	cs, _ := trainingSet(t, 40, 50, 31)
	far := &cascade.Cascade{ID: len(cs)}
	for i := 0; i < 7; i++ {
		far.Infections = append(far.Infections, cascade.Infection{Node: 5 * i, Time: 0.9 * math.MaxFloat64 * (1 + 0.01*float64(i))})
	}
	_, _, err := Sequential(append(cs, far), 40, Config{K: 2, MaxIter: 25, Seed: 12})
	if err == nil {
		t.Fatal("an overflowing cascade did not fail the fit")
	}
	if !strings.Contains(err.Error(), "diverged") || !strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), "epoch 0") {
		t.Fatalf("undescriptive divergence error: %v", err)
	}
}

// A corrupt warm start fails before the first E-step: an EM epoch is
// deterministic, so running it could only fail later for the same
// reason.
func TestEMRejectsCorruptStartAtOnce(t *testing.T) {
	cs, _ := trainingSet(t, 40, 50, 33)
	for name, poison := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "negative": -0.5} {
		m := embed.NewModel(40, 2)
		m.InitUniform(xrand.New(14), 0.1, 0.5)
		m.B.Data[17] = poison
		fit, err := emCtx(context.Background(), m, cs, Config{K: 2, MaxIter: 25, Seed: 14}.WithDefaults())
		if err == nil || !strings.Contains(err.Error(), "corrupt before fit") {
			t.Fatalf("%s: err = %v, want a corrupt-start error", name, err)
		}
		if fit.epochs != 0 || fit.lls != nil || fit.sweeps != 0 {
			t.Fatalf("%s: %d epochs, %d likelihoods, %d E-steps before failing", name, fit.epochs, len(fit.lls), fit.sweeps)
		}
	}
}

// TestHogwildWorkerSkipsNonFiniteGradients sets one shared cell to +Inf
// — node 5 sits in 20 of the fixture's 50 cascades — and runs Hogwild's
// workers over every cascade: each gradient that reads the cell is
// non-finite and dropped, so no other cell of A or B is ever poisoned.
func TestHogwildWorkerSkipsNonFiniteGradients(t *testing.T) {
	cs, _ := trainingSet(t, 40, 50, 31)
	const k, bad = 2, 5 * 2 // the cell (node 5, topic 0)
	a, b := newAtomicMatrix(40, k), newAtomicMatrix(40, k)
	init := xrand.New(14)
	for i := range a.data {
		a.data[i].Store(math.Float64bits(0.1 + 0.4*init.Float64()))
		b.data[i].Store(math.Float64bits(0.1 + 0.4*init.Float64()))
	}
	a.data[bad].Store(math.Float64bits(math.Inf(1)))
	before := b.snapshot()
	const workers = 2
	err := pool.Run(workers, workers, func(w int) error {
		hogwildWorker(cs, a, b, k, 0.5, xrand.New(uint64(w)+1), 2*len(cs))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snapA, snapB := a.snapshot(), b.snapshot()
	for i, v := range snapA.Data {
		if i != bad && !finite(v) {
			t.Fatalf("A cell %d is %v: a non-finite gradient reached the shared matrix", i, v)
		}
	}
	if !vecmath.AllFinite(snapB.Data) {
		t.Fatal("a non-finite gradient reached the shared B")
	}
	if snapB.FrobeniusDist(before) == 0 {
		t.Fatal("no update reached B: the workers did nothing")
	}
}

// A checkpoint that cannot be written must abort the fit loudly.
func TestCheckpointErrorAbortsFit(t *testing.T) {
	cs, _ := trainingSet(t, 30, 40, 35)
	base := slpa.FromMembership(blockMembership(30, 10))
	path := filepath.Join(t.TempDir(), "missing", "fit.ckpt")
	_, _, err := HierarchicalCtx(context.Background(), cs, 30, base, Config{K: 2, MaxIter: 10, Seed: 16}, ParallelOptions{}, Resilience{Path: path})
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("checkpoint failure swallowed: %v", err)
	}
}
