package graph

import (
	"strings"
	"testing"
	"testing/quick"

	"viralcast/internal/xrand"
)

func mustGraph(t *testing.T, n int, edges ...Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges(%d, %v): %v", n, edges, err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := mustGraph(t, 4, Edge{1, 2, 3}, Edge{0, 2, 2}, Edge{0, 1, 1})
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	ts, ws := g.Neighbors(0)
	if len(ts) != 2 || ts[0] != 1 || ts[1] != 2 || ws[0] != 1 || ws[1] != 2 {
		t.Fatalf("Neighbors(0) = %v %v", ts, ws)
	}
	if g.OutDegree(3) != 0 {
		t.Fatal("isolated node must have degree 0")
	}
	if w, ok := g.Weight(1, 2); !ok || w != 3 {
		t.Fatalf("Weight(1,2) = %v %v", w, ok)
	}
	if _, ok := g.Weight(2, 1); ok {
		t.Fatal("Weight(2,1) should not exist (directed)")
	}
}

func TestBuilderAccumulatesParallelEdges(t *testing.T) {
	g := mustGraph(t, 2, Edge{0, 1, 1}, Edge{0, 1, 2.5})
	if g.M() != 1 {
		t.Fatalf("parallel edges must merge, M=%d", g.M())
	}
	if w, _ := g.Weight(0, 1); w != 3.5 {
		t.Fatalf("accumulated weight %v, want 3.5", w)
	}
}

func TestBuilderRejects(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		edges   []Edge
		wantErr string
	}{
		{"self-loop", 3, []Edge{{0, 1, 1}, {1, 1, 1}}, "self-loop on node 1"},
		{"negative from", 3, []Edge{{-1, 1, 1}}, "edge (-1,1) out of range [0,3)"},
		{"from out of range", 3, []Edge{{0, 1, 1}, {3, 0, 1}}, "edge (3,0) out of range [0,3)"},
		{"negative to", 3, []Edge{{0, -1, 1}}, "edge (0,-1) out of range [0,3)"},
		{"to out of range", 3, []Edge{{0, 3, 1}}, "edge (0,3) out of range [0,3)"},
		{"negative n", -1, nil, "n >= 0"},
	}
	for _, tc := range cases {
		g, err := FromEdges(tc.n, tc.edges)
		if err == nil {
			t.Errorf("%s: accepted, got graph with %d arcs", tc.name, g.M())
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestEdgesAndTotalWeight(t *testing.T) {
	g := mustGraph(t, 3, Edge{2, 0, 1}, Edge{0, 1, 2})
	es := g.Edges()
	if len(es) != 2 || es[0].From != 0 || es[1].From != 2 {
		t.Fatalf("Edges order wrong: %v", es)
	}
	if total := es[0].Weight + es[1].Weight; total != 3 {
		t.Fatalf("edge weights sum to %v, want 3", total)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := mustGraph(t, 5, Edge{0, 1, 1}, Edge{3, 2, 1}) // direction must not matter
	comp, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components = %d, want 3 (got %v)", count, comp)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] || comp[4] == comp[0] {
		t.Fatalf("component assignment wrong: %v", comp)
	}
}

// Property: for random graphs, CSR invariants hold — M equals the number
// of distinct pairs added, every neighbor list is sorted, and Weight
// agrees with Neighbors.
func TestCSRInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(30)
		type pair struct{ u, v int }
		want := map[pair]float64{}
		var edges []Edge
		for i := rng.Intn(100); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := rng.Float64()
			edges = append(edges, Edge{u, v, w})
			want[pair{u, v}] += w
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		if g.M() != len(want) {
			return false
		}
		total := 0
		for u := 0; u < n; u++ {
			ts, ws := g.Neighbors(u)
			for i, v := range ts {
				if i > 0 && ts[i-1] >= v {
					return false // not sorted or duplicate
				}
				exp := want[pair{u, v}]
				if diff := ws[i] - exp; diff > 1e-12 || diff < -1e-12 {
					return false
				}
				total++
			}
		}
		return total == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ConnectedComponents is a valid partition and respects edges.
func TestComponentsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(40)
		var edges []Edge
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, Edge{u, v, 1})
			}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		comp, count := g.ConnectedComponents()
		seen := map[int]bool{}
		for _, c := range comp {
			if c < 0 || c >= count {
				return false
			}
			seen[c] = true
		}
		if len(seen) != count {
			return false
		}
		for _, e := range g.Edges() {
			if comp[e.From] != comp[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
