package cascade

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"viralcast/internal/xrand"
)

func valid() *Cascade {
	return &Cascade{ID: 1, Infections: []Infection{{0, 0}, {3, 1.5}, {2, 2.25}}}
}

func TestSizeDurationNodes(t *testing.T) {
	c := valid()
	if c.Size() != 3 {
		t.Fatalf("Size = %d", c.Size())
	}
	if c.Duration() != 2.25 {
		t.Fatalf("Duration = %v", c.Duration())
	}
	nodes := c.Nodes()
	if len(nodes) != 3 || nodes[0] != 0 || nodes[1] != 3 || nodes[2] != 2 {
		t.Fatalf("Nodes = %v", nodes)
	}
	single := &Cascade{Infections: []Infection{{0, 5}}}
	if single.Duration() != 0 {
		t.Fatal("singleton duration must be 0")
	}
}

func TestNodeSet(t *testing.T) {
	s := valid().NodeSet()
	if len(s) != 3 || !s[0] || !s[2] || !s[3] || s[1] {
		t.Fatalf("NodeSet = %v", s)
	}
}

func TestPrefix(t *testing.T) {
	c := valid()
	p := c.Prefix(1.5)
	if p.Size() != 2 || p.Infections[1].Node != 3 {
		t.Fatalf("Prefix = %+v", p.Infections)
	}
	// Prefix must not share storage.
	p.Infections[0].Node = 99
	if c.Infections[0].Node == 99 {
		t.Fatal("Prefix aliases parent storage")
	}
	if c.Prefix(-1).Size() != 0 {
		t.Fatal("Prefix before first infection must be empty")
	}
	if c.Prefix(100).Size() != 3 {
		t.Fatal("Prefix past end must include all")
	}
}

func TestValidate(t *testing.T) {
	if err := ValidateAll([]*Cascade{valid()}, 4); err != nil {
		t.Fatalf("valid cascade rejected: %v", err)
	}
	cases := map[string]*Cascade{
		"empty":        {ID: 1},
		"dup node":     {Infections: []Infection{{0, 0}, {0, 1}}},
		"neg node":     {Infections: []Infection{{-1, 0}}},
		"out of range": {Infections: []Infection{{9, 0}}},
		"neg time":     {Infections: []Infection{{0, -1}}},
		"disorder":     {Infections: []Infection{{0, 2}, {1, 1}}},
	}
	for name, c := range cases {
		if err := ValidateAll([]*Cascade{c}, 4); err == nil {
			t.Errorf("%s: invalid cascade accepted", name)
		}
	}
	// n <= 0 is an empty universe: every node is out of range.
	for _, n := range []int{0, -1} {
		if err := ValidateAll([]*Cascade{valid()}, n); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("n=%d: %v, want an out-of-range error", n, err)
		}
	}
}

// ValidateAll keeps one seen-table for all cascades; it must report
// exactly what validating the bad cascade alone reports, and a node
// shared by consecutive cascades is not a re-infection.
func TestValidateAllMatchesValidate(t *testing.T) {
	bad := map[string]*Cascade{
		"empty":          {ID: 1},
		"dup node":       {ID: 2, Infections: []Infection{{0, 0}, {3, 1}, {0, 2}}},
		"neg node":       {ID: 3, Infections: []Infection{{1, 0}, {-1, 1}}},
		"out of range":   {ID: 4, Infections: []Infection{{1, 0}, {9, 1}}},
		"neg time":       {ID: 5, Infections: []Infection{{0, -1}}},
		"NaN time":       {ID: 6, Infections: []Infection{{0, math.NaN()}}},
		"disorder":       {ID: 7, Infections: []Infection{{0, 2}, {1, 1}}},
		"dup then range": {ID: 8, Infections: []Infection{{2, 0}, {2, 1}, {9, 2}}},
	}
	for name, c := range bad {
		cs := []*Cascade{valid(), valid(), c, valid()}
		want := ValidateAll([]*Cascade{c}, 4)
		got := ValidateAll(cs, 4)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: ValidateAll = %v, alone = %v", name, got, want)
		}
	}
	if err := ValidateAll([]*Cascade{valid(), valid(), valid()}, 4); err != nil {
		t.Errorf("cascades sharing nodes rejected: %v", err)
	}
	cs := make([]*Cascade, 64)
	for i := range cs {
		cs[i] = valid()
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = ValidateAll(cs, 4) }); allocs > 1 {
		t.Errorf("ValidateAll allocated %v times for %d cascades, want one table", allocs, len(cs))
	}
}

func TestSortByTime(t *testing.T) {
	c := &Cascade{Infections: []Infection{{2, 3}, {1, 1}, {5, 1}, {0, 2}}}
	c.SortByTime()
	want := []Infection{{1, 1}, {5, 1}, {0, 2}, {2, 3}}
	for i, inf := range want {
		if c.Infections[i] != inf {
			t.Fatalf("SortByTime = %v, want %v", c.Infections, want)
		}
	}
}

func TestAggregates(t *testing.T) {
	cs := []*Cascade{valid(), {ID: 2, Infections: []Infection{{1, 0}}}}
	if err := ValidateAll(cs, 4); err != nil {
		t.Fatal(err)
	}
	if s := Sizes(cs); s[0] != 3 || s[1] != 1 {
		t.Fatalf("Sizes = %v", s)
	}
	if MeanSize(cs) != 2 {
		t.Fatalf("MeanSize = %v", MeanSize(cs))
	}
	if TotalInfections(cs) != 4 {
		t.Fatalf("TotalInfections = %v", TotalInfections(cs))
	}
	if MeanSize(nil) != 0 {
		t.Fatal("MeanSize(nil) != 0")
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	cs := []*Cascade{
		{ID: 7, Infections: []Infection{{0, 0}, {2, 0.5}, {1, 1.25}}},
		{ID: 3, Infections: []Infection{{4, 0}}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, cs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 7 || got[1].ID != 3 {
		t.Fatalf("roundtrip ids wrong: %+v", got)
	}
	for i := range cs {
		if len(got[i].Infections) != len(cs[i].Infections) {
			t.Fatalf("cascade %d length mismatch", i)
		}
		for j := range cs[i].Infections {
			if got[i].Infections[j] != cs[i].Infections[j] {
				t.Fatalf("cascade %d infection %d mismatch: %v vs %v",
					i, j, got[i].Infections[j], cs[i].Infections[j])
			}
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1,0,0\n1,2,1.5\n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Size() != 2 {
		t.Fatalf("Read = %+v", got)
	}
}

func TestReadErrors(t *testing.T) {
	bad := []struct{ in, want string }{
		{"1,0\n", "line 1"},
		{"x,0,0\n", "line 1"},
		{"1,y,0\n", "line 1"},
		{"1,0,z\n", "line 1"},
		{"1,0,0\n1,2147483648,1\n", "line 2: node id 2147483648 above the limit"},
		{"1,9223372036854775806,1\n", "line 1: node id 9223372036854775806 above the limit"},
	}
	for _, tc := range bad {
		if _, err := Read(strings.NewReader(tc.in)); err == nil {
			t.Errorf("Read accepted %q", tc.in)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Read(%q) = %v, want it to mention %q", tc.in, err, tc.want)
		}
	}
	if cs, err := Read(strings.NewReader("1,2147483647,0\n")); err != nil || cs[0].Infections[0].Node != math.MaxInt32 {
		t.Errorf("Read of the largest node id = %v, %v", cs, err)
	}
}

// Property: roundtrip through Write/Read preserves arbitrary valid cascades.
func TestRoundtripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(5)
		var cs []*Cascade
		for id := 0; id < n; id++ {
			c := &Cascade{ID: id}
			tm := 0.0
			sz := 1 + rng.Intn(10)
			for j := 0; j < sz; j++ {
				tm += rng.Float64()
				c.Infections = append(c.Infections, Infection{Node: id*100 + j, Time: tm})
			}
			cs = append(cs, c)
		}
		var buf bytes.Buffer
		if err := Write(&buf, cs); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != len(cs) {
			return false
		}
		for i := range cs {
			if got[i].ID != cs[i].ID || got[i].Size() != cs[i].Size() {
				return false
			}
			for j := range cs[i].Infections {
				a, b := got[i].Infections[j], cs[i].Infections[j]
				if a.Node != b.Node {
					return false
				}
				diff := a.Time - b.Time
				if diff > 1e-9 || diff < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadOversizedLine(t *testing.T) {
	old := maxLineBytes
	maxLineBytes = 256
	defer func() { maxLineBytes = old }()
	// Two good lines, then one longer than the limit on line 3.
	in := "1,0,0\n1,1,0.5\n# " + strings.Repeat("x", 512) + "\n"
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("oversized line accepted")
	}
	for _, want := range []string{"line 3", "256-byte limit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// Lines within the limit still read fine.
	cs, err := Read(strings.NewReader("1,0,0\n1,1,0.5\n"))
	if err != nil || len(cs) != 1 || cs[0].Size() != 2 {
		t.Fatalf("short lines: cs=%v err=%v", cs, err)
	}
}
