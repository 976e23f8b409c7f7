package features

import (
	"math"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
)

// model with hand-set influence rows for exact feature arithmetic.
func fixedModel() *embed.Model {
	m := embed.NewModel(4, 2)
	// A rows: node 0 = (1,0), node 1 = (0,1), node 2 = (3,4), node 3 = (0,0)
	m.A.Set(0, 0, 1)
	m.A.Set(1, 1, 1)
	m.A.Set(2, 0, 3)
	m.A.Set(2, 1, 4)
	return m
}

func early(nodes ...int) *cascade.Cascade {
	c := &cascade.Cascade{}
	for i, u := range nodes {
		c.Infections = append(c.Infections, cascade.Infection{Node: u, Time: float64(i)})
	}
	return c
}

func TestExtractExactValues(t *testing.T) {
	m := fixedModel()
	s, err := Extract(m, early(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// diverA = ||(1,0)-(0,1)|| = sqrt(2)
	if math.Abs(s.DiverA-math.Sqrt2) > 1e-12 {
		t.Errorf("DiverA = %v, want sqrt(2)", s.DiverA)
	}
	// sum = (1,1): normA = sqrt(2), maxA = 1
	if math.Abs(s.NormA-math.Sqrt2) > 1e-12 {
		t.Errorf("NormA = %v, want sqrt(2)", s.NormA)
	}
	if s.MaxA != 1 {
		t.Errorf("MaxA = %v, want 1", s.MaxA)
	}
	if s.EarlyCount != 2 {
		t.Errorf("EarlyCount = %v, want 2", s.EarlyCount)
	}
	// Duration 1, 2 adopters -> rate 2.
	if s.EarlyRate != 2 {
		t.Errorf("EarlyRate = %v, want 2", s.EarlyRate)
	}
}

func TestExtractThreeNodes(t *testing.T) {
	m := fixedModel()
	s, err := Extract(m, early(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise distances: d(0,1)=sqrt2, d(0,2)=sqrt(4+16)=sqrt20, d(1,2)=sqrt(9+9)=sqrt18.
	if math.Abs(s.DiverA-math.Sqrt(20)) > 1e-12 {
		t.Errorf("DiverA = %v, want sqrt(20)", s.DiverA)
	}
	// sum = (4,5): normA = sqrt(41), maxA = 5.
	if math.Abs(s.NormA-math.Sqrt(41)) > 1e-12 {
		t.Errorf("NormA = %v, want sqrt(41)", s.NormA)
	}
	if s.MaxA != 5 {
		t.Errorf("MaxA = %v, want 5", s.MaxA)
	}
}

func TestExtractSingleAdopter(t *testing.T) {
	m := fixedModel()
	s, err := Extract(m, early(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.DiverA != 0 {
		t.Errorf("single adopter DiverA = %v, want 0", s.DiverA)
	}
	if s.NormA != 5 { // ||(3,4)||
		t.Errorf("NormA = %v, want 5", s.NormA)
	}
	// Zero duration: rate falls back to the adopter count.
	if s.EarlyRate != 1 {
		t.Errorf("EarlyRate = %v, want 1", s.EarlyRate)
	}
}

func TestExtractErrors(t *testing.T) {
	m := fixedModel()
	if _, err := Extract(m, nil); err == nil {
		t.Error("nil prefix accepted")
	}
	if _, err := Extract(m, &cascade.Cascade{}); err == nil {
		t.Error("empty prefix accepted")
	}
	if _, err := Extract(m, early(9)); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestSelect(t *testing.T) {
	s := Set{DiverA: 1, NormA: 2, MaxA: 3, EarlyCount: 4, EarlyRate: 5}
	v, err := s.Select(Names)
	if err != nil || len(v) != 5 {
		t.Fatalf("Select(Names) = %v, %v", v, err)
	}
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if v[i] != want {
			t.Fatalf("Select(Names) = %v, want Set's fields in order", v)
		}
	}
	sel, err := s.Select([]string{"maxA", "diverA"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != 3 || sel[1] != 1 {
		t.Fatalf("Select = %v", sel)
	}
	if _, err := s.Select([]string{"bogus"}); err == nil {
		t.Error("unknown feature accepted")
	}
}

func TestExtractAll(t *testing.T) {
	m := fixedModel()
	cs := []*cascade.Cascade{
		{Infections: []cascade.Infection{{Node: 0, Time: 0}, {Node: 1, Time: 1}, {Node: 2, Time: 5}}},
		{Infections: []cascade.Infection{{Node: 2, Time: 10}}}, // starts after cutoff
	}
	sets, sizes, err := ExtractAll(m, cs, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sizes) != 1 {
		t.Fatalf("got %d sets, %d sizes; want 1 each", len(sets), len(sizes))
	}
	if sizes[0] != 3 {
		t.Errorf("target size = %d, want full cascade size 3", sizes[0])
	}
	if sets[0].EarlyCount != 2 {
		t.Errorf("early count = %v, want 2 (cutoff at t=2)", sets[0].EarlyCount)
	}
}
