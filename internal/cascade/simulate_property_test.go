package cascade

import (
	"testing"
	"testing/quick"

	"viralcast/internal/graph"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// Property: every simulated cascade (on random graphs with random
// non-negative embeddings) is a valid cascade whose seed is the first
// infection at time 0, and whose infections all lie inside the window.
func TestSimulatorInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(30)
		var edges []graph.Edge
		for e := rng.Intn(4 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, graph.Edge{From: u, To: v, Weight: 1})
			}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(3)
		a := vecmath.NewMatrix(n, k)
		bm := vecmath.NewMatrix(n, k)
		for i := range a.Data {
			a.Data[i] = rng.Float64()
		}
		for i := range bm.Data {
			bm.Data[i] = rng.Float64()
		}
		window := 0.1 + 5*rng.Float64()
		sim, err := NewSimulator(g, a, bm, window)
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			start := rng.Intn(n)
			c, err := sim.Run(trial, start, rng)
			if err != nil {
				return false
			}
			if ValidateAll([]*Cascade{c}, n) != nil {
				return false
			}
			if c.Infections[0].Node != start || c.Infections[0].Time != 0 {
				return false
			}
			for _, inf := range c.Infections {
				if inf.Time > window {
					return false
				}
			}
			// Reachability: every infected node (except the seed) must be
			// reachable from an earlier-infected node through a graph edge.
			infectedBefore := map[int]bool{start: true}
			for _, inf := range c.Infections[1:] {
				ok := false
				for u := range infectedBefore {
					if _, exists := g.Weight(u, inf.Node); exists {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
				infectedBefore[inf.Node] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the Prefix operation is consistent with Validate and with
// monotone cutoffs: Prefix(t1) is a prefix of Prefix(t2) for t1 <= t2.
func TestPrefixMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		c := &Cascade{ID: 1}
		tm := 0.0
		for i := 0; i < 1+rng.Intn(15); i++ {
			tm += rng.Float64()
			c.Infections = append(c.Infections, Infection{Node: i, Time: tm})
		}
		t1 := rng.Float64() * tm
		t2 := t1 + rng.Float64()*tm
		p1, p2 := c.Prefix(t1), c.Prefix(t2)
		if p1.Size() > p2.Size() {
			return false
		}
		for i := range p1.Infections {
			if p1.Infections[i] != p2.Infections[i] {
				return false
			}
		}
		// Prefixes of valid cascades are valid unless empty.
		if p1.Size() > 0 && ValidateAll([]*Cascade{p1}, 100) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
