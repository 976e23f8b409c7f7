// Package workload draws the synthetic study every fixture stands on:
// an SBM network, a planted influence/selectivity truth over it, and
// cascades simulated from the two. It imports no lab package — the
// figures that consume a draw live in internal/experiments — so the
// serving binary and leaf packages' tests can build one without them.
package workload

import (
	"fmt"
	"math"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
	"viralcast/internal/graph"
	"viralcast/internal/sbm"
	"viralcast/internal/xrand"
)

// Config parameterizes one draw. Defaults follow §VI-A: SBM with 2,000
// nodes, alpha=0.2, beta=0.001 (~40-node blocks, average degree ~10)
// and 3,000 cascades.
type Config struct {
	N         int
	BlockSize int
	Alpha     float64
	Beta      float64
	// TruthK is the number of planted topics; BridgeProb is the chance a
	// node covers a second topic (the multi-topic bridge nodes whose
	// cascades go viral).
	TruthK     int
	BridgeProb float64
	// RateScale multiplies the planted base hazard rates.
	RateScale float64
	// InfluenceAlpha is the Pareto exponent of the planted influence
	// magnitudes: smaller values mean heavier-tailed super-spreaders.
	InfluenceAlpha float64
	Cascades       int
	Window         float64
	Seed           uint64
}

// Default returns the paper-scale configuration.
func Default() Config {
	return Config{
		N:              2000,
		BlockSize:      40,
		Alpha:          0.2,
		Beta:           0.001,
		TruthK:         8,
		BridgeProb:     0.15,
		RateScale:      2.5,
		InfluenceAlpha: 1.1,
		Cascades:       3000,
		Window:         10,
		Seed:           1,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.N <= 0 || c.BlockSize <= 0 {
		return fmt.Errorf("workload: bad SBM dims N=%d BlockSize=%d", c.N, c.BlockSize)
	}
	if c.TruthK <= 0 || c.Cascades <= 0 || c.Window <= 0 {
		return fmt.Errorf("workload: need positive TruthK, Cascades and Window, got %d / %d / %v", c.TruthK, c.Cascades, c.Window)
	}
	return nil
}

// Draw is one materialized study: graph, planted truth, and the
// cascades simulated from them, ids 0..Cascades-1 in draw order.
type Draw struct {
	Graph      *graph.Graph
	Membership []int
	Truth      *embed.Model
	Cascades   []*cascade.Cascade
}

// Build generates the graph, plants the ground truth, and simulates the
// cascades, all from one RNG seeded with c.Seed: a draw is a function of
// its Config alone, and a longer draw starts with the shorter one.
func Build(c Config) (*Draw, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(c.Seed)
	g, membership, err := sbm.Generate(sbm.Params{
		N: c.N, BlockSize: c.BlockSize, Alpha: c.Alpha, Beta: c.Beta,
	}, rng)
	if err != nil {
		return nil, err
	}
	truth := plantTruth(c, membership, rng)
	sim, err := cascade.NewSimulator(g, truth.A, truth.B, c.Window)
	if err != nil {
		return nil, err
	}
	cs, err := sim.RunMany(0, c.Cascades, rng)
	if err != nil {
		return nil, err
	}
	return &Draw{Graph: g, Membership: membership, Truth: truth, Cascades: cs}, nil
}

// plantTruth assigns each block a primary topic (block index mod
// TruthK); bridge nodes additionally cover a second random topic.
// Influence magnitudes are Pareto distributed: a small population of
// super-spreaders drives essentially all onward transmission, while
// ordinary nodes rarely infect anyone within the window. A cascade's
// final size is then approximately the summed reach of the influential
// nodes it recruits — and because influential nodes, once reachable, are
// recruited early (their inbound edges fire at the same rate as
// everyone's), the early adopters' influence features (normA, maxA,
// diverA) largely determine the final size. This is the "size grows
// almost linearly with the features" regime of the paper's Figures 6-8.
func plantTruth(c Config, membership []int, rng *xrand.RNG) *embed.Model {
	m := embed.NewModel(c.N, c.TruthK)
	alpha := c.InfluenceAlpha
	if alpha <= 0 {
		alpha = 1.3
	}
	// Ordinary-pair transmission probability within the whole window is
	// small (rateOrd*W = 0.1*RateScale); super-spreaders multiply it by
	// their Pareto influence draw.
	rateOrd := 0.1 / c.Window * c.RateScale
	base := math.Sqrt(rateOrd)
	for u := 0; u < c.N; u++ {
		topics := []int{membership[u] % c.TruthK}
		if rng.Bernoulli(c.BridgeProb) && c.TruthK > 1 {
			second := rng.Intn(c.TruthK)
			if second != topics[0] {
				topics = append(topics, second)
			}
		}
		influence := rng.Pareto(1, alpha)
		if influence > 400 {
			influence = 400
		}
		for _, k := range topics {
			m.A.Set(u, k, base*influence*(0.7+0.6*rng.Float64()))
			m.B.Set(u, k, base*(0.5+rng.Float64()))
		}
	}
	return m
}
