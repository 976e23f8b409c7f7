package features

import (
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/graph"
)

// pathGraph builds 0 -> 1 -> 2 -> 3 with reverse edges.
func pathGraph(t *testing.T) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		edges = append(edges, graph.Edge{From: e[0], To: e[1], Weight: 1}, graph.Edge{From: e[1], To: e[0], Weight: 1})
	}
	g, err := graph.FromEdges(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExtractTopoExactValues(t *testing.T) {
	g := pathGraph(t)
	membership := []int{0, 0, 1, 1}
	early := &cascade.Cascade{Infections: []cascade.Infection{
		{Node: 0, Time: 0}, {Node: 1, Time: 1},
	}}
	s, err := ExtractTopo(g, membership, early)
	if err != nil {
		t.Fatal(err)
	}
	if s.EarlyCount != 2 {
		t.Errorf("EarlyCount = %v", s.EarlyCount)
	}
	// Uninfected neighbors of {0, 1}: node 2 only.
	if s.Frontier != 1 {
		t.Errorf("Frontier = %v, want 1", s.Frontier)
	}
	if s.FrontierPerAdopter != 0.5 {
		t.Errorf("FrontierPerAdopter = %v", s.FrontierPerAdopter)
	}
	// Both adopters in community 0.
	if s.Communities != 1 || s.MaxCommunityShare != 1 {
		t.Errorf("Communities = %v, MaxCommunityShare = %v", s.Communities, s.MaxCommunityShare)
	}
}

func TestExtractTopoCrossCommunity(t *testing.T) {
	g := pathGraph(t)
	membership := []int{0, 0, 1, 1}
	early := &cascade.Cascade{Infections: []cascade.Infection{
		{Node: 1, Time: 0}, {Node: 2, Time: 1},
	}}
	s, err := ExtractTopo(g, membership, early)
	if err != nil {
		t.Fatal(err)
	}
	if s.Communities != 2 {
		t.Errorf("Communities = %v, want 2", s.Communities)
	}
	if s.MaxCommunityShare != 0.5 {
		t.Errorf("MaxCommunityShare = %v, want 0.5", s.MaxCommunityShare)
	}
	// Frontier: neighbors of {1,2} not infected = {0, 3}.
	if s.Frontier != 2 {
		t.Errorf("Frontier = %v, want 2", s.Frontier)
	}
}

func TestExtractTopoErrors(t *testing.T) {
	g := pathGraph(t)
	if _, err := ExtractTopo(g, []int{0, 0, 0, 0}, nil); err == nil {
		t.Error("nil prefix accepted")
	}
	if _, err := ExtractTopo(g, []int{0}, &cascade.Cascade{
		Infections: []cascade.Infection{{Node: 0, Time: 0}},
	}); err == nil {
		t.Error("wrong membership length accepted")
	}
	if _, err := ExtractTopo(g, []int{0, 0, 0, 0}, &cascade.Cascade{
		Infections: []cascade.Infection{{Node: 9, Time: 0}},
	}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestExtractTopoAll(t *testing.T) {
	g := pathGraph(t)
	membership := []int{0, 0, 1, 1}
	cs := []*cascade.Cascade{
		{Infections: []cascade.Infection{{Node: 0, Time: 0}, {Node: 1, Time: 3}}},
		{Infections: []cascade.Infection{{Node: 2, Time: 10}}}, // after cutoff
	}
	sets, sizes, err := ExtractTopoAll(g, membership, cs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sizes) != 1 {
		t.Fatalf("got %d sets", len(sets))
	}
	if sizes[0] != 2 {
		t.Errorf("target size = %d", sizes[0])
	}
	if sets[0].EarlyCount != 1 {
		t.Errorf("early count = %v (cutoff 1.0)", sets[0].EarlyCount)
	}
	if len(TopoNames) != len(sets[0].Vector()) {
		t.Error("TopoNames and Vector out of sync")
	}
}
