package cooccur

import (
	"math"
	"testing"

	"viralcast/internal/cascade"
)

func casc(id int, nodes ...int) *cascade.Cascade {
	c := &cascade.Cascade{ID: id}
	for i, u := range nodes {
		c.Infections = append(c.Infections, cascade.Infection{Node: u, Time: float64(i)})
	}
	return c
}

func TestBuildWeights(t *testing.T) {
	// Node 0 in 2 cascades, node 1 in 2, pair (0 before 1) in 1 cascade.
	cs := []*cascade.Cascade{
		casc(0, 0, 1),
		casc(1, 0),
		casc(2, 1),
	}
	g, err := Build(cs, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, ok := g.Weight(0, 1)
	if !ok {
		t.Fatal("edge (0,1) missing")
	}
	// w = 2*1/(2+2) = 0.5
	if math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("w(0,1) = %v, want 0.5", w)
	}
	if _, ok := g.Weight(1, 0); ok {
		t.Fatal("edge (1,0) must not exist (1 never precedes 0)")
	}
}

func TestBuildDirectionality(t *testing.T) {
	cs := []*cascade.Cascade{casc(0, 2, 1, 0)}
	g, err := Build(cs, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		// Only earlier-infected -> later-infected edges may exist.
		if !(e.From == 2 && (e.To == 1 || e.To == 0)) && !(e.From == 1 && e.To == 0) {
			t.Fatalf("unexpected edge %+v", e)
		}
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
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
		if e.Weight <= 0 || e.Weight > 1 {
			t.Fatalf("weight out of (0,1]: %+v", e)
		}
	}
}

func TestBuildMinPairCount(t *testing.T) {
	cs := []*cascade.Cascade{
		casc(0, 0, 1),
		casc(1, 0, 1),
		casc(2, 1, 2),
	}
	g, err := Build(cs, 3, Options{MinPairCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Weight(0, 1); !ok {
		t.Error("frequent pair dropped")
	}
	if _, ok := g.Weight(1, 2); ok {
		t.Error("rare pair kept despite MinPairCount")
	}
}

func TestBuildMaxCascadeSize(t *testing.T) {
	cs := []*cascade.Cascade{
		casc(0, 0, 1, 2, 3), // size 4, skipped for pairs
		casc(1, 0, 1),
	}
	g, err := Build(cs, 4, Options{MaxCascadeSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Weight(2, 3); ok {
		t.Error("pair from oversized cascade kept")
	}
	if w, ok := g.Weight(0, 1); !ok {
		t.Error("pair from small cascade dropped")
	} else {
		// c(0)=2, c(1)=2 (node counts include the big cascade), c(0,1)=1.
		if math.Abs(w-2.0/4.0) > 1e-12 {
			t.Errorf("w(0,1) = %v, want 0.5", w)
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

func BenchmarkBuild(b *testing.B) {
	// 500 synthetic cascades of ~30 nodes each.
	var cs []*cascade.Cascade
	node := 0
	for i := 0; i < 500; i++ {
		c := &cascade.Cascade{ID: i}
		for j := 0; j < 30; j++ {
			c.Infections = append(c.Infections,
				cascade.Infection{Node: (node + j*7) % 800, Time: float64(j)})
		}
		// Deduplicate by construction: stride 7 over 800 nodes with 30 steps
		// never repeats within a cascade.
		node = (node + 13) % 800
		cs = append(cs, c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cs, 800, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
