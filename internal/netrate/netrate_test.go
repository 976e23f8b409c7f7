package netrate

import (
	"math"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
	"viralcast/internal/sbm"
	"viralcast/internal/xrand"
)

func casc(id int, pairs ...float64) *cascade.Cascade {
	// pairs are (node, time) flattened.
	c := &cascade.Cascade{ID: id}
	for i := 0; i+1 < len(pairs); i += 2 {
		c.Infections = append(c.Infections, cascade.Infection{Node: int(pairs[i]), Time: pairs[i+1]})
	}
	return c
}

func TestCandidateEdges(t *testing.T) {
	cs := []*cascade.Cascade{
		casc(0, 0, 0, 1, 1, 2, 2),
		casc(1, 0, 0, 1, 0.5),
	}
	edges := CandidateEdges(cs, 1)
	if edges[[2]int{0, 1}] != 2 {
		t.Fatalf("count(0->1) = %d, want 2", edges[[2]int{0, 1}])
	}
	if edges[[2]int{1, 2}] != 1 || edges[[2]int{0, 2}] != 1 {
		t.Fatalf("transitive pairs missing: %v", edges)
	}
	if _, ok := edges[[2]int{1, 0}]; ok {
		t.Fatal("reverse-order pair included")
	}
	filtered := CandidateEdges(cs, 2)
	if len(filtered) != 1 {
		t.Fatalf("MinPairCount=2 kept %d edges", len(filtered))
	}
}

func TestFitValidation(t *testing.T) {
	if _, _, err := Fit(nil, 0, Config{}); err == nil {
		t.Error("n=0 accepted")
	}
	singles := []*cascade.Cascade{casc(0, 1, 0)}
	if _, _, err := Fit(singles, 3, Config{}); err == nil {
		t.Error("no candidate edges accepted")
	}
}

func TestFitImprovesLikelihoodMonotonically(t *testing.T) {
	rng := xrand.New(1)
	g, _, err := sbm.Generate(sbm.Params{N: 40, BlockSize: 20, Alpha: 0.4, Beta: 0.02}, rng)
	if err != nil {
		t.Fatal(err)
	}
	truth := embed.NewModel(40, 2)
	truth.InitUniform(rng, 0.3, 0.9)
	sim, err := cascade.NewSimulator(g, truth.A, truth.B, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sim.RunMany(0, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, lls, err := Fit(cs, 40, Config{MaxIter: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(lls) < 2 {
		t.Fatalf("no progress recorded: %v", lls)
	}
	for i := 1; i < len(lls); i++ {
		if lls[i] < lls[i-1]-1e-9 {
			t.Fatalf("likelihood decreased at %d: %v -> %v", i, lls[i-1], lls[i])
		}
	}
	for _, r := range m.rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("invalid fitted rate %v", r)
		}
	}
}

func TestFitRecoversStrongEdge(t *testing.T) {
	// Node 0 infects node 1 quickly in many cascades; node 0 and node 2
	// co-occur only with long delays. The fitted rate(0,1) should exceed
	// rate(0,2).
	var cs []*cascade.Cascade
	rng := xrand.New(3)
	for i := 0; i < 60; i++ {
		fast := 0.05 + 0.05*rng.Float64()
		slow := 2.0 + rng.Float64()
		cs = append(cs, casc(i, 0, 0, 1, fast, 2, slow))
	}
	m, _, err := Fit(cs, 3, Config{MaxIter: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rate(0, 1) <= m.Rate(0, 2) {
		t.Fatalf("fast edge rate %v <= slow edge rate %v", m.Rate(0, 1), m.Rate(0, 2))
	}
}

func TestParameterCountComparison(t *testing.T) {
	// The paper's core argument: the edge model's parameter count grows
	// much faster than the node model's 2*n*K.
	rng := xrand.New(5)
	g, _, err := sbm.Generate(sbm.Params{N: 100, BlockSize: 20, Alpha: 0.4, Beta: 0.02}, rng)
	if err != nil {
		t.Fatal(err)
	}
	truth := embed.NewModel(100, 2)
	truth.InitUniform(rng, 0.3, 0.8)
	sim, err := cascade.NewSimulator(g, truth.A, truth.B, 2)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sim.RunMany(0, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Fit(cs, 100, Config{MaxIter: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	nodeParams := 2 * 100 * 4 // A and B at K=4
	if m.NumEdges() <= nodeParams {
		t.Skipf("workload too sparse to demonstrate the blow-up: %d edges", m.NumEdges())
	}
	t.Logf("edge parameters %d vs node parameters %d (%.1fx)",
		m.NumEdges(), nodeParams, float64(m.NumEdges())/float64(nodeParams))
}

func TestLogLikAgreesWithEmbedOnSharedStructure(t *testing.T) {
	// If the edge rates equal A[u]·B[v] for every co-occurring pair, the
	// two likelihood implementations must agree (they are the same
	// survival form).
	rng := xrand.New(7)
	em := embed.NewModel(10, 2)
	em.InitUniform(rng, 0.3, 0.9)
	cs := []*cascade.Cascade{
		casc(0, 1, 0, 4, 0.7, 2, 1.3),
		casc(1, 3, 0, 1, 0.4, 5, 0.9, 2, 1.8),
	}
	edges := CandidateEdges(cs, 1)
	m := &Model{n: 10, edgeIndex: map[[2]int]int{}}
	for key := range edges {
		m.edgeIndex[key] = len(m.rates)
		m.rates = append(m.rates, em.Rate(key[0], key[1]))
	}
	for _, c := range cs {
		got := m.LogLik(c)
		want := em.LogLik(c)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("cascade %d: edge loglik %v != embed loglik %v", c.ID, got, want)
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	rng := xrand.New(8)
	var cs []*cascade.Cascade
	for i := 0; i < 30; i++ {
		cs = append(cs, casc(i, 0, 0, 1, 0.3+0.1*rng.Float64(), 2, 1+rng.Float64()))
	}
	m1, _, err := Fit(cs, 3, Config{MaxIter: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Fit(cs, 3, Config{MaxIter: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.rates {
		if m1.rates[i] != m2.rates[i] {
			t.Fatal("same seed, different rates")
		}
	}
}
