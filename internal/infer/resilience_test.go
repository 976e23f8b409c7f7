package infer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"viralcast/internal/checkpoint"
	"viralcast/internal/embed"
	"viralcast/internal/faultinject"
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

// --- resume -----------------------------------------------------------------

func TestHierarchicalResumeRejectsMismatchedState(t *testing.T) {
	cs, _ := trainingSet(t, 30, 30, 26)
	base := slpa.FromMembership(blockMembership(30, 10))
	wrongN := embed.NewModel(10, 2)
	_, _, err := HierarchicalCtx(context.Background(), cs, 30, base, Config{K: 2, Seed: 1}, ParallelOptions{}, Resilience{
		Resume: &FitState{Model: wrongN, Seed: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "resume model") {
		t.Fatalf("mismatched model accepted: %v", err)
	}
	rightM := embed.NewModel(30, 2)
	rightM.InitUniform(xrand.New(1), 0.1, 0.5)
	_, _, err = HierarchicalCtx(context.Background(), cs, 30, base, Config{K: 2, Seed: 1}, ParallelOptions{}, Resilience{
		Resume: &FitState{Model: rightM, Seed: 99},
	})
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("mismatched seed accepted: %v", err)
	}
}

// TestHierarchicalInterruptResumeMatchesUninterrupted is the headline
// recovery guarantee: a run killed mid-training (a context cancellation
// injected at an exact gradient epoch, standing in for SIGINT) leaves a
// checkpoint behind, and resuming from that file produces a final model
// bit-identical to a never-interrupted run — so held-out metrics match
// trivially.
func TestHierarchicalInterruptResumeMatchesUninterrupted(t *testing.T) {
	train, _ := trainingSet(t, 60, 120, 27)
	heldOut, _ := trainingSet(t, 60, 40, 28)
	base := slpa.FromMembership(blockMembership(60, 20))
	cfg := Config{K: 2, MaxIter: 12, Seed: 7}
	opts := ParallelOptions{Workers: 2}

	// Reference: uninterrupted run.
	want, _, err := Hierarchical(train, 60, base, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: a "SIGINT" lands at the 10th gradient epoch.
	ckptPath := filepath.Join(t.TempDir(), "train.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.NewInjector()
	inj.Arm(faultinject.Fault{Site: "infer.epoch", Action: faultinject.Call, Hit: 10, Fn: cancel})
	deactivate := faultinject.Activate(inj)
	saveTo := func(st FitState) error {
		return checkpoint.Save(ckptPath, &checkpoint.State{
			Model: st.Model, Level: st.Level, Seed: st.Seed, LogLik: st.LogLik,
		})
	}
	_, _, err = HierarchicalCtx(ctx, train, 60, base, cfg, opts, Resilience{Checkpoint: saveTo})
	deactivate()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	// The kill must have left a durable, loadable checkpoint.
	st, err := checkpoint.Load(ckptPath)
	if err != nil {
		t.Fatalf("no usable checkpoint after interruption: %v", err)
	}

	// Resume and finish.
	got, _, err := HierarchicalCtx(context.Background(), train, 60, base, cfg, opts, Resilience{
		Checkpoint: saveTo,
		Resume:     &FitState{Model: st.Model, Level: st.Level, Seed: st.Seed, LogLik: st.LogLik},
	})
	if err != nil {
		t.Fatal(err)
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
	var finalState *FitState
	want, _, err := HierarchicalCtx(context.Background(), train, 40, base, cfg, ParallelOptions{Workers: 2}, Resilience{
		Checkpoint: func(st FitState) error { finalState = &st; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	got, tr, err := HierarchicalCtx(context.Background(), train, 40, base, cfg, ParallelOptions{Workers: 2}, Resilience{
		Resume: finalState,
	})
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

// TestDivergenceGuardRecoversFromInjectedNaN is the second acceptance
// criterion: NaNs injected into the E-step's statistics leave the model
// untouched and re-run the epoch, and the fit still converges on the
// synthetic SBM fixture instead of emitting garbage.
func TestDivergenceGuardRecoversFromInjectedNaN(t *testing.T) {
	cs, _ := trainingSet(t, 60, 100, 30)
	inj := faultinject.NewInjector()
	// Three transient NaN hits spread across the run.
	for _, hit := range []int{2, 5, 9} {
		inj.Arm(faultinject.Fault{Site: "infer.grad", Action: faultinject.NaN, Hit: hit})
	}
	defer faultinject.Activate(inj)()
	m, tr, err := Sequential(cs, 60, Config{K: 2, MaxIter: 25, Seed: 11})
	if err != nil {
		t.Fatalf("fit failed despite recoverable faults: %v", err)
	}
	if inj.Fired("infer.grad") != 3 {
		t.Fatalf("injected %d NaNs, want 3", inj.Fired("infer.grad"))
	}
	if !vecmath.AllFinite(m.A.Data) || !vecmath.AllFinite(m.B.Data) {
		t.Fatal("NaN leaked into the fitted embeddings")
	}
	if len(tr.LogLik) < 2 || tr.LogLik[len(tr.LogLik)-1] <= tr.LogLik[0] {
		t.Fatalf("fit did not converge under fault injection: %v", tr.LogLik)
	}
	for i := 1; i < len(tr.LogLik); i++ {
		if tr.LogLik[i] < tr.LogLik[i-1] {
			t.Fatalf("monotonicity lost at %d: %v", i, tr.LogLik)
		}
	}
}

func TestDivergenceGuardGivesUpWithDescriptiveError(t *testing.T) {
	cs, _ := trainingSet(t, 40, 50, 31)
	inj := faultinject.NewInjector()
	inj.Arm(faultinject.Fault{Site: "infer.grad", Action: faultinject.NaN}) // every epoch
	defer faultinject.Activate(inj)()
	_, _, err := Sequential(cs, 40, Config{K: 2, MaxIter: 25, Seed: 12})
	if err == nil {
		t.Fatal("permanently poisoned gradient did not fail the fit")
	}
	if !strings.Contains(err.Error(), "diverged") || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("undescriptive divergence error: %v", err)
	}
}

// A corrupt warm start is not a transient fault: an EM epoch is
// deterministic, so the fit reports it before the first E-step instead
// of spending the retry budget on passes that would repeat it.
func TestEMRejectsCorruptStartAtOnce(t *testing.T) {
	cs, _ := trainingSet(t, 40, 50, 33)
	for name, poison := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "negative": -0.5} {
		m := embed.NewModel(40, 2)
		m.InitUniform(xrand.New(14), 0.1, 0.5)
		m.B.Data[17] = poison
		inj := faultinject.NewInjector()
		inj.Arm(faultinject.Fault{Site: "infer.grad", Action: faultinject.NaN}) // every E-step
		restore := faultinject.Activate(inj)
		fit, err := emCtx(context.Background(), m, cs, Config{K: 2, MaxIter: 25, Seed: 14}.WithDefaults())
		restore()
		if err == nil || !strings.Contains(err.Error(), "corrupt before fit") {
			t.Fatalf("%s: err = %v, want a corrupt-start error", name, err)
		}
		if fit.epochs != 0 || fit.lls != nil || inj.Fired("infer.grad") != 0 {
			t.Fatalf("%s: %d epochs, %d likelihoods, %d E-steps before failing", name, fit.epochs, len(fit.lls), inj.Fired("infer.grad"))
		}
	}
}

func TestHogwildSkipsInjectedNaNGradients(t *testing.T) {
	cs, _ := trainingSet(t, 40, 60, 33)
	inj := faultinject.NewInjector()
	// Poison roughly a quarter of all stochastic gradients, reproducibly.
	inj.Arm(faultinject.Fault{Site: "infer.hogwild.grad", Action: faultinject.NaN, Prob: 0.25, Seed: 99})
	defer faultinject.Activate(inj)()
	m, tr, err := Hogwild(cs, 40, Config{K: 2, Seed: 14}, HogwildOptions{Workers: 1, Epochs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Fired("infer.hogwild.grad") == 0 {
		t.Fatal("fault never fired — test is vacuous")
	}
	if !vecmath.AllFinite(m.A.Data) || !vecmath.AllFinite(m.B.Data) {
		t.Fatal("NaN leaked into the hogwild embeddings")
	}
	if tr.LogLik[len(tr.LogLik)-1] <= tr.LogLik[0] {
		t.Fatalf("hogwild made no progress under fault injection: %v", tr.LogLik)
	}
}

// A checkpoint callback that fails must abort the fit loudly.
func TestCheckpointErrorAbortsFit(t *testing.T) {
	cs, _ := trainingSet(t, 30, 40, 35)
	base := slpa.FromMembership(blockMembership(30, 10))
	boom := fmt.Errorf("disk full")
	_, _, err := HierarchicalCtx(context.Background(), cs, 30, base, Config{K: 2, MaxIter: 10, Seed: 16}, ParallelOptions{}, Resilience{
		Checkpoint: func(FitState) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("checkpoint failure swallowed: %v", err)
	}
}
