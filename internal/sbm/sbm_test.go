package sbm

import (
	"math"
	"reflect"
	"testing"

	"viralcast/internal/graph"
	"viralcast/internal/xrand"
)

func TestValidate(t *testing.T) {
	good := Params{N: 100, BlockSize: 10, Alpha: 0.2, Beta: 0.01}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{N: 0, BlockSize: 10, Alpha: 0.2, Beta: 0.01},
		{N: 100, BlockSize: 0, Alpha: 0.2, Beta: 0.01},
		{N: 100, BlockSize: 10, Alpha: 1.5, Beta: 0.01},
		{N: 100, BlockSize: 10, Alpha: 0.2, Beta: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestBlockAssignment(t *testing.T) {
	p := Params{N: 25, BlockSize: 10, Alpha: 0.5, Beta: 0}
	if p.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d", p.NumBlocks())
	}
	if p.Block(0) != 0 || p.Block(9) != 0 || p.Block(10) != 1 || p.Block(24) != 2 {
		t.Fatal("Block assignment wrong")
	}
}

func TestGenerateMembership(t *testing.T) {
	p := Params{N: 30, BlockSize: 10, Alpha: 0.3, Beta: 0.01}
	g, mem, err := Generate(p, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 30 || len(mem) != 30 {
		t.Fatalf("sizes wrong: N=%d len(mem)=%d", g.N(), len(mem))
	}
	for u, m := range mem {
		if m != u/10 {
			t.Fatalf("membership[%d] = %d", u, m)
		}
	}
}

func TestGenerateEdgeRates(t *testing.T) {
	// With enough nodes, empirical intra/inter edge densities must match
	// alpha and beta.
	p := Params{N: 400, BlockSize: 40, Alpha: 0.2, Beta: 0.01}
	g, mem, err := Generate(p, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var intraEdges, interEdges float64
	for _, e := range g.Edges() {
		if e.From > e.To {
			continue // undirected: count each pair once
		}
		if mem[e.From] == mem[e.To] {
			intraEdges++
		} else {
			interEdges++
		}
	}
	intraPairs := 10.0 * 40 * 39 / 2 // 10 blocks
	interPairs := float64(400*399)/2 - intraPairs
	intraRate := intraEdges / intraPairs
	interRate := interEdges / interPairs
	if math.Abs(intraRate-0.2) > 0.02 {
		t.Errorf("intra rate %v, want ~0.2", intraRate)
	}
	if math.Abs(interRate-0.01) > 0.002 {
		t.Errorf("inter rate %v, want ~0.01", interRate)
	}
}

func TestGenerateUndirectedSymmetry(t *testing.T) {
	p := Params{N: 80, BlockSize: 20, Alpha: 0.3, Beta: 0.02}
	g, _, err := Generate(p, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if w, ok := g.Weight(e.To, e.From); !ok || w != e.Weight {
			t.Fatalf("missing reverse edge for (%d,%d)", e.From, e.To)
		}
	}
}

func TestGenerateZeroBeta(t *testing.T) {
	p := Params{N: 60, BlockSize: 20, Alpha: 0.5, Beta: 0}
	g, mem, err := Generate(p, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if mem[e.From] != mem[e.To] {
			t.Fatalf("beta=0 produced cross edge (%d,%d)", e.From, e.To)
		}
	}
	if g.M() == 0 {
		t.Fatal("no intra edges generated at alpha=0.5")
	}
}

func TestGeneratePaperScaleDegree(t *testing.T) {
	// Paper: n=2000, alpha=0.2, beta=0.001 gives average degree ~ 10.
	// Expected degree = 0.2*39 + 0.001*1960 ~ 9.76.
	if testing.Short() {
		t.Skip("paper-scale generation skipped in -short")
	}
	p := Params{N: 2000, BlockSize: 40, Alpha: 0.2, Beta: 0.001}
	g, _, err := Generate(p, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(g.M()) / float64(g.N())
	if avg < 8.5 || avg > 11.5 {
		t.Errorf("average degree %v, want ~10 (paper)", avg)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{N: 50, BlockSize: 10, Alpha: 0.3, Beta: 0.02}
	g1, _, _ := Generate(p, xrand.New(9))
	g2, _, _ := Generate(p, xrand.New(9))
	if g1.M() != g2.M() {
		t.Fatalf("same seed, different edge counts: %d vs %d", g1.M(), g2.M())
	}
	e1, e2 := g1.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("same seed, edge %d differs", i)
		}
	}
}

func TestGenerateDirected(t *testing.T) {
	p := Params{N: 60, BlockSize: 20, Alpha: 0.4, Beta: 0.01, Directed: true}
	g, _, err := Generate(p, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	// In a directed SBM, some edges should lack a reverse counterpart.
	asym := 0
	for _, e := range g.Edges() {
		if _, ok := g.Weight(e.To, e.From); !ok {
			asym++
		}
	}
	if asym == 0 {
		t.Error("directed generation produced a perfectly symmetric graph")
	}
}

// generateBuilder is Generate as it was before it emitted CSR rows: the
// same draws in the same order, collected as an edge list and summed per
// pair by graph.FromEdges.
func generateBuilder(t *testing.T, p Params, rng *xrand.RNG) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	add := func(u, v int) {
		edges = append(edges, graph.Edge{From: u, To: v, Weight: 1})
		if !p.Directed {
			edges = append(edges, graph.Edge{From: v, To: u, Weight: 1})
		}
	}
	for blk := 0; blk < p.NumBlocks(); blk++ {
		lo := blk * p.BlockSize
		hi := min(lo+p.BlockSize, p.N)
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				if rng.Bernoulli(p.Alpha) {
					add(u, v)
				}
				if p.Directed && rng.Bernoulli(p.Alpha) {
					add(v, u)
				}
			}
		}
	}
	if p.Beta > 0 {
		sampleCross(p, rng, add)
	}
	g, err := graph.FromEdges(p.N, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGenerateMatchesBuilderOracle: the CSR rows Generate hands to
// graph.FromCSR are the graph generateBuilder's edge list makes — offsets,
// targets and weights — and the generator leaves the RNG where the
// edge-list version did.
func TestGenerateMatchesBuilderOracle(t *testing.T) {
	cases := map[string]Params{
		"undirected":        {N: 200, BlockSize: 40, Alpha: 0.2, Beta: 0.01},
		"directed":          {N: 200, BlockSize: 40, Alpha: 0.2, Beta: 0.01, Directed: true},
		"beta zero":         {N: 90, BlockSize: 30, Alpha: 0.4, Beta: 0},
		"ragged last block": {N: 97, BlockSize: 20, Alpha: 0.3, Beta: 0.02},
		"ragged directed":   {N: 53, BlockSize: 25, Alpha: 0.5, Beta: 0.05, Directed: true},
		"one node blocks":   {N: 30, BlockSize: 1, Alpha: 1, Beta: 0.2},
		"no edges":          {N: 12, BlockSize: 4, Alpha: 0, Beta: 0},
		"complete":          {N: 12, BlockSize: 5, Alpha: 1, Beta: 1},
	}
	for name, p := range cases {
		for seed := uint64(1); seed <= 5; seed++ {
			gotRNG, wantRNG := xrand.New(seed), xrand.New(seed)
			got, _, err := Generate(p, gotRNG)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			want := generateBuilder(t, p, wantRNG)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: CSR graph (%d arcs) differs from the edge list's (%d arcs)", name, seed, got.M(), want.M())
			}
			if *gotRNG != *wantRNG {
				t.Fatalf("%s seed %d: the generator consumed a different stream", name, seed)
			}
		}
	}
}
