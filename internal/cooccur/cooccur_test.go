package cooccur

import (
	"math"
	"runtime"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/slpa"
	"viralcast/internal/workload"
	"viralcast/internal/xrand"
)

func casc(id int, nodes ...int) *cascade.Cascade {
	c := &cascade.Cascade{ID: id}
	for i, u := range nodes {
		c.Infections = append(c.Infections, cascade.Infection{Node: u, Time: float64(i)})
	}
	return c
}

// weightOf is the two-term weight Build gives a pair: w(u,v) + w(v,u),
// each 2*c/(c(u)+c(v)) for its own order's count.
func weightOf(cuv, cvu, cu, cv int) float64 {
	return 2*float64(cuv)/float64(cu+cv) + 2*float64(cvu)/float64(cu+cv)
}

func TestBuildWeights(t *testing.T) {
	// c(0) = 4, c(1) = 3; 0 precedes 1 in two cascades, 1 precedes 0 in one.
	cs := []*cascade.Cascade{
		casc(0, 0, 1),
		casc(1, 0, 1),
		casc(2, 1, 0),
		casc(3, 0),
	}
	g, err := Build(cs, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := weightOf(2, 1, 4, 3) // 4/7 + 2/7
	for _, arc := range [][2]int{{0, 1}, {1, 0}} {
		w, ok := g.Weight(arc[0], arc[1])
		if !ok || math.Float64bits(w) != math.Float64bits(want) {
			t.Fatalf("w(%d,%d) = %v, %v; want %v", arc[0], arc[1], w, ok, want)
		}
	}
	if math.Abs(want-6.0/7) > 1e-15 {
		t.Fatalf("two-term weight %v, want 6/7", want)
	}
}

// A pair infected in one order only still gets an arc both ways, of one
// term; a pair seen in both orders sums the two.
func TestBuildDirectionality(t *testing.T) {
	cs := []*cascade.Cascade{casc(0, 2, 1, 0), casc(1, 0, 1)}
	g, err := Build(cs, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// c(0) = 2, c(1) = 2, c(2) = 1.
	want := map[[2]int]float64{
		{0, 1}: weightOf(1, 1, 2, 2), // both orders: 1/2 + 1/2
		{0, 2}: weightOf(0, 1, 2, 1), // 2 before 0 only: 2/3
		{1, 2}: weightOf(0, 1, 2, 1), // 2 before 1 only: 2/3
	}
	for pair, w := range want {
		for _, arc := range [][2]int{pair, {pair[1], pair[0]}} {
			if got, ok := g.Weight(arc[0], arc[1]); !ok || got != w {
				t.Fatalf("w(%d,%d) = %v, %v; want %v", arc[0], arc[1], got, ok, w)
			}
		}
	}
	if g.M() != 6 {
		t.Fatalf("M = %d, want 6", g.M())
	}
}

// Every arc's reverse is present with the same weight bits.
func TestBuildSymmetric(t *testing.T) {
	rng := xrand.New(16)
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(60)
		cs := randomCascades(rng, n)
		g, err := Build(cs, n, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, e := range g.Edges() {
			w, ok := g.Weight(e.To, e.From)
			if !ok || math.Float64bits(w) != math.Float64bits(e.Weight) {
				t.Fatalf("trial %d: arc %+v has reverse weight %v, %v", trial, e, w, ok)
			}
		}
	}
}

func TestBuildWeightRange(t *testing.T) {
	cs := []*cascade.Cascade{
		casc(0, 0, 1, 2),
		casc(1, 0, 1),
		casc(2, 1, 2, 0),
	}
	g, err := Build(cs, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if e.Weight <= 0 || e.Weight > 2 {
			t.Fatalf("weight out of (0,2]: %+v", e)
		}
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	if _, err := Build(nil, 0, Options{}); err == nil {
		t.Error("n=0 accepted")
	}
	bad := &cascade.Cascade{Infections: []cascade.Infection{{Node: 9, Time: 0}}}
	if _, err := Build([]*cascade.Cascade{bad}, 3, Options{}); err == nil {
		t.Error("out-of-range cascade accepted")
	}
}

// trainDraw is the draw bench/'s train workload fits: 800 nodes, 1,000
// cascades, window 8.
func trainDraw(t testing.TB) []*cascade.Cascade {
	c := workload.Default()
	c.N, c.Cascades, c.Window = 800, 1000, 8
	d, err := workload.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	return d.Cascades
}

// A fit's graph front half, Build then Detect on the train draw, allocates
// at most half of what it did while Build emitted the directed graph and
// Detect symmetrized it: 7.77 MB then, 2.34 MB in Build and 5.43 MB in
// Detect, 4.74 MB of which were the transpose and the undirected copy.
func TestBuildAndDetectAllocations(t *testing.T) {
	const limit = 7.77e6 / 2
	cs := trainDraw(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Build(cs, 800, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slpa.Detect(g, slpa.Options{}, xrand.New(1))
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got > limit {
		t.Fatalf("Build and Detect allocate %.2f MB on the train draw, limit %.2f MB", float64(got)/1e6, limit/1e6)
	}
	t.Logf("Build and Detect allocate %.2f MB on the train draw (%d arcs)", float64(got)/1e6, g.M())
}

// BenchmarkBuild builds the graph of bench/'s train workload, the one a
// fit's SLPA runs on.
func BenchmarkBuild(b *testing.B) {
	cs := trainDraw(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cs, 800, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
