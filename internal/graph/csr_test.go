package graph

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"viralcast/internal/xrand"
)

// TestFromEdgesSumsInListOrder holds FromEdges to a map that accumulates
// each pair's weights with += in list order, bit for bit. Weights span
// many magnitudes and signs, so a different summation order shows.
func TestFromEdgesSumsInListOrder(t *testing.T) {
	rng := xrand.New(35)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		type pair struct{ u, v int }
		want := map[pair]float64{}
		var edges []Edge
		for i := rng.Intn(8 * n); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(33)-16))
			if rng.Intn(10) == 0 {
				w = math.Copysign(0, -1)
			}
			edges = append(edges, Edge{u, v, w})
			want[pair{u, v}] += w
		}
		in := append([]Edge(nil), edges...)
		g, err := FromEdges(n, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(edges, in) {
			t.Fatalf("trial %d: FromEdges modified its input", trial)
		}
		if g.N() != n || g.M() != len(want) {
			t.Fatalf("trial %d: n=%d m=%d, want n=%d m=%d", trial, g.N(), g.M(), n, len(want))
		}
		for _, e := range g.Edges() {
			if w := want[pair{e.From, e.To}]; math.Float64bits(e.Weight) != math.Float64bits(w) {
				t.Fatalf("trial %d: weight (%d,%d) = %v, want %v bit for bit", trial, e.From, e.To, e.Weight, w)
			}
		}
	}
}

func TestFromCSR(t *testing.T) {
	g, err := FromCSR(4, []int{0, 2, 2, 3, 3}, []int{1, 3, 0}, []float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{0, 1, 0.5}, {0, 3, 1}, {2, 0, 2}}
	if g.N() != 4 || !reflect.DeepEqual(g.Edges(), want) {
		t.Fatalf("FromCSR edges = %v (n=%d), want %v", g.Edges(), g.N(), want)
	}
	if w, ok := g.Weight(2, 0); !ok || w != 2 {
		t.Fatalf("Weight(2,0) = %v, %v", w, ok)
	}
	if g, err := FromCSR(0, []int{0}, nil, nil); err != nil || g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: %v, %v", g, err)
	}
}

func TestFromCSRRejects(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		offsets []int
		targets []int
		weights []float64
		wantErr string
	}{
		{"negative n", -1, []int{0}, nil, nil, "n >= 0"},
		{"short offsets", 2, []int{0, 1}, []int{1}, []float64{1}, "offsets"},
		{"offsets not from zero", 2, []int{1, 1, 1}, []int{1}, []float64{1}, "starting at 0"},
		{"offsets end short", 2, []int{0, 1, 1}, []int{1, 0}, []float64{1, 1}, "end at"},
		{"weights mismatch", 2, []int{0, 1, 1}, []int{1}, []float64{1, 1}, "weights"},
		{"offsets decrease", 3, []int{0, 2, 1, 2}, []int{1, 2}, []float64{1, 1}, "not monotone"},
		{"offsets overshoot", 3, []int{0, 3, 1, 2}, []int{1, 2}, []float64{1, 1}, "not monotone"},
		{"target out of range", 2, []int{0, 1, 1}, []int{2}, []float64{1}, "out of range"},
		{"negative target", 2, []int{0, 1, 1}, []int{-1}, []float64{1}, "out of range"},
		{"self-loop", 2, []int{0, 0, 1}, []int{1}, []float64{1}, "self-loop"},
		{"unsorted targets", 3, []int{0, 2, 2, 2}, []int{2, 1}, []float64{1, 1}, "strictly ascending"},
		{"duplicate target", 3, []int{0, 2, 2, 2}, []int{1, 1}, []float64{1, 1}, "strictly ascending"},
	}
	for _, tc := range cases {
		g, err := FromCSR(tc.n, tc.offsets, tc.targets, tc.weights)
		if err == nil {
			t.Errorf("%s: accepted, got graph with %d arcs", tc.name, g.M())
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
