package viralcast_test

import (
	"os/exec"
	"regexp"
	"testing"

	"viralcast"
	"viralcast/internal/cascade"
	"viralcast/internal/embed"
	"viralcast/internal/sbm"
	"viralcast/internal/xrand"
)

// TestPublicWorkflow exercises the documented façade end to end: train a
// system from cascades, rank influencers, fit a predictor, classify a
// fresh cascade.
func TestPublicWorkflow(t *testing.T) {
	rng := xrand.New(1)
	g, _, err := sbm.Generate(sbm.Params{N: 80, BlockSize: 20, Alpha: 0.3, Beta: 0.01}, rng)
	if err != nil {
		t.Fatal(err)
	}
	truth := embed.NewModel(80, 2)
	truth.InitUniform(rng, 0.2, 0.8)
	sim, err := cascade.NewSimulator(g, truth.A, truth.B, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sim.RunMany(0, 250, rng)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := viralcast.Train(cs[:200], 80, viralcast.TrainConfig{Topics: 2, MaxIter: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if top := sys.TopInfluencers(3); len(top) != 3 {
		t.Fatalf("TopInfluencers = %d", len(top))
	}
	pred, err := sys.TrainPredictor(cs[:200], 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	classified := 0
	for _, c := range cs[200:] {
		if _, _, err := pred.PredictViral(c); err == nil {
			classified++
		}
	}
	if classified == 0 {
		t.Fatal("no test cascades classifiable")
	}
}

// TestLibraryLinksNoLabPackage: the library is what a program importing
// viralcast links, so it must not close over the evaluation lab
// (DESIGN.md: lab packages are importable only from cmd/figures and
// tests). scripts/ci.sh checks the same graph.
func TestLibraryLinksNoLabPackage(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	lab := regexp.MustCompile(`(?m)^viralcast/internal/(experiments|gdelt|cluster|netrate|pointproc)$`)
	if hits := lab.FindAllString(string(out), -1); hits != nil {
		t.Fatalf("the viralcast library links lab packages: %v", hits)
	}
}
