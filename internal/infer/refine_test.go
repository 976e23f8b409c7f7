package infer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
)

func TestRefineImprovesOnNewCascades(t *testing.T) {
	cs, _ := trainingSet(t, 60, 200, 41)
	old, fresh := cs[:120], cs[120:]
	m, _, err := Sequential(old, 60, Config{K: 2, MaxIter: 15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// The refit sees the corpus and the new cascades together.
	before := m.LogLikAll(fresh)
	tr, err := Refine(m, cs, Config{K: 2, MaxIter: 15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	after := m.LogLikAll(fresh)
	if after <= before {
		t.Fatalf("refinement did not improve new-cascade loglik: %v -> %v", before, after)
	}
	if tr.Iters == 0 {
		t.Fatal("no epochs accepted")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Monotone trajectory.
	for i := 1; i < len(tr.LogLik); i++ {
		if tr.LogLik[i] < tr.LogLik[i-1]-1e-9 {
			t.Fatalf("refinement loglik decreased: %v", tr.LogLik)
		}
	}
}

func TestRefineValidation(t *testing.T) {
	cs, _ := trainingSet(t, 20, 10, 43)
	m := embed.NewModel(20, 2)
	if _, err := Refine(nil, cs, Config{K: 2}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Refine(m, cs, Config{K: 3}); err == nil {
		t.Error("K mismatch accepted")
	}
	bad := embed.NewModel(20, 2)
	bad.A.Set(0, 0, -1)
	if _, err := Refine(bad, cs, Config{K: 2}); err == nil {
		t.Error("invalid model accepted")
	}
	outOfRange := []*cascade.Cascade{{Infections: []cascade.Infection{{Node: 99, Time: 0}}}}
	if _, err := Refine(m, outOfRange, Config{K: 2}); err == nil {
		t.Error("out-of-range cascade accepted")
	}
}

// Failure injection: corrupted cascades must be rejected by every
// inference entry point, never silently fitted.
func TestInferenceRejectsCorruptedCascades(t *testing.T) {
	good, _ := trainingSet(t, 30, 20, 44)
	corruptions := map[string]*cascade.Cascade{
		"duplicate node": {ID: 900, Infections: []cascade.Infection{
			{Node: 1, Time: 0}, {Node: 1, Time: 0.5},
		}},
		"time travel": {ID: 901, Infections: []cascade.Infection{
			{Node: 1, Time: 2}, {Node: 2, Time: 1},
		}},
		"negative time": {ID: 902, Infections: []cascade.Infection{
			{Node: 1, Time: -1}, {Node: 2, Time: 1},
		}},
		"NaN time": {ID: 903, Infections: []cascade.Infection{
			{Node: 1, Time: math.NaN()}, {Node: 2, Time: 1},
		}},
		"Inf time": {ID: 904, Infections: []cascade.Infection{
			{Node: 1, Time: 0}, {Node: 2, Time: math.Inf(1)},
		}},
		"node out of range": {ID: 905, Infections: []cascade.Infection{
			{Node: 1, Time: 0}, {Node: 999, Time: 1},
		}},
	}
	for name, bad := range corruptions {
		cs := append(append([]*cascade.Cascade{}, good...), bad)
		if _, _, err := Sequential(cs, 30, Config{K: 2, MaxIter: 2}); err == nil {
			t.Errorf("Sequential accepted %s", name)
		}
		if _, _, err := Hogwild(cs, 30, Config{K: 2}, HogwildOptions{Epochs: 1}); err == nil {
			t.Errorf("Hogwild accepted %s", name)
		}
		m := embed.NewModel(30, 2)
		if _, err := Refine(m, cs, Config{K: 2, MaxIter: 2}); err == nil {
			t.Errorf("Refine accepted %s", name)
		}
	}
}

// refineGolden is the SHA-256 of Refine's output A‖B bit patterns,
// objective trace and epoch count on the fixture below: a fit to 100
// cascades warm-starts an EM refit over those and 50 more, the flush's
// shape. Recorded when Refine's projected ascent gave way to the fit's
// EM.
const refineGolden = "1426b1d12354be83759a6e2ade41779aa9675ff6c48e1e35c00197934818307b"

func TestRefinePinned(t *testing.T) {
	cs, _ := trainingSet(t, 60, 150, 45)
	m, _, err := Sequential(cs[:100], 60, Config{K: 3, MaxIter: 12, Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Refine(m, cs, Config{K: 3, MaxIter: 12, Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, "Refine", m, tr, refineGolden)
}

// assertPinned fails t unless the SHA-256 of the fit's A‖B bit patterns,
// likelihood trace and epoch count is golden. Float results are only
// pinned on the architecture the goldens were taken on (others may fuse
// multiply-adds).
func assertPinned(t *testing.T, fit string, m *embed.Model, tr *Trace, golden string) {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	for _, data := range [][]float64{m.A.Data, m.B.Data, tr.LogLik} {
		for _, v := range data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(tr.Iters))
	h.Write(buf[:])
	if got := hex.EncodeToString(h.Sum(nil)); runtime.GOARCH == "amd64" && got != golden {
		t.Fatalf("%s's output moved: digest %s, golden %s (%d epochs)", fit, got, golden, tr.Iters)
	}
}
