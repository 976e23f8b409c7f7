package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"viralcast/internal/cascade"
)

// drawGolden is the SHA-256 of cascade.Write over the draw
// `viralcast simulate -n 150 -cascades 300 -window 8 -seed 7` makes,
// recorded at the commit before this package was split out of
// internal/experiments: every RNG draw (graph, truth, cascades) must
// keep its place in the one stream.
const drawGolden = "1623809c810b9481c398ce3353237c4d4f5a361e3a89244ce0be1e2bce5fa646"

func TestBuildPinned(t *testing.T) {
	c := Default()
	c.N, c.Cascades, c.Window, c.Seed = 150, 300, 8, 7
	d, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cascades) != 300 || d.Graph.N() != 150 || len(d.Membership) != 150 {
		t.Fatalf("draw shape: %d cascades, %d nodes, %d memberships", len(d.Cascades), d.Graph.N(), len(d.Membership))
	}
	if err := d.Truth.Validate(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := cascade.Write(h, d.Cascades); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != drawGolden {
		t.Fatalf("draw moved: digest %s, golden %s", got, drawGolden)
	}
	// A longer draw starts with the shorter one: callers that need a
	// prefix may ask for exactly that many.
	c.Cascades = 40
	short, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range short.Cascades {
		if len(sc.Infections) != len(d.Cascades[i].Infections) {
			t.Fatalf("cascade %d: %d infections in the short draw, %d in the long", i, len(sc.Infections), len(d.Cascades[i].Infections))
		}
		for j, inf := range sc.Infections {
			if inf != d.Cascades[i].Infections[j] {
				t.Fatalf("cascade %d infection %d: %v vs %v", i, j, inf, d.Cascades[i].Infections[j])
			}
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"N":         func(c *Config) { c.N = 0 },
		"BlockSize": func(c *Config) { c.BlockSize = -1 },
		"TruthK":    func(c *Config) { c.TruthK = 0 },
		"Cascades":  func(c *Config) { c.Cascades = 0 },
		"Window":    func(c *Config) { c.Window = 0 },
	} {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad %s accepted", name)
		}
		if _, err := Build(c); err == nil {
			t.Errorf("Build drew from a bad %s", name)
		}
	}
}

// BenchmarkBuild draws the benchmark's train fixture — 800 nodes, 2,500
// cascades, window 8, seed 1 — which is all of that workload's set-up:
// graph, planted truth, the simulator's arc table and the cascades.
func BenchmarkBuild(b *testing.B) {
	c := Default()
	c.N, c.Cascades, c.Window, c.Seed = 800, 2500, 8, 1
	b.ReportAllocs()
	infections := 0
	for i := 0; i < b.N; i++ {
		d, err := Build(c)
		if err != nil {
			b.Fatal(err)
		}
		infections = 0
		for _, cs := range d.Cascades {
			infections += len(cs.Infections)
		}
	}
	b.ReportMetric(float64(infections), "infections")
}
