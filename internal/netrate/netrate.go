// Package netrate implements the link-based inference baseline the paper
// argues against (§I, §III-B; the approach of its references [1]-[5],
// most directly Gomez-Rodriguez et al.'s NetRate): instead of 2*n*K
// node-embedding parameters, every potential propagation edge (u, v)
// carries its own exponential transmission rate lambda_uv, giving O(n^2)
// parameters in the worst case. The likelihood framework is identical
// (continuous-time SI with exponential delays), so this package shares
// the survival-analysis form of the objective:
//
//	L_c = sum_{v in c} [ sum_{l<v} (t_l - t_v) lambda_lv + ln sum_{u<v} lambda_uv ]
//
// and maximizes it with projected gradient ascent over the candidate
// edge set. The candidate set is restricted to pairs that actually
// co-occur in cascades (as NetRate implementations do), which is what
// makes the baseline tractable at all — and the comparison in
// bench/ablation code quantifies the paper's claim that node embeddings
// are far cheaper at equal predictive power.
package netrate

import (
	"fmt"
	"math"

	"viralcast/internal/cascade"
	"viralcast/internal/xrand"
)

// epsRate floors the aggregate hazard in logarithms and denominators,
// mirroring embed.EpsRate.
const epsRate = 1e-12

// Model holds per-edge transmission rates over a fixed candidate edge
// set. Edges are stored per target node: incoming[v] lists candidate
// sources with their rate index, enabling the per-cascade sweeps to
// touch only relevant edges.
type Model struct {
	n     int
	rates []float64
	// edgeIndex maps (u, v) -> index into rates.
	edgeIndex map[[2]int]int
}

// N returns the number of nodes.
func (m *Model) N() int { return m.n }

// NumEdges returns the number of candidate edges (the parameter count).
func (m *Model) NumEdges() int { return len(m.rates) }

// Rate returns the rate of edge (u, v); zero if (u, v) is not a
// candidate.
func (m *Model) Rate(u, v int) float64 {
	if i, ok := m.edgeIndex[[2]int{u, v}]; ok {
		return m.rates[i]
	}
	return 0
}

// Config tunes the baseline.
type Config struct {
	// MinPairCount keeps only candidate edges whose ordered co-occurrence
	// count reaches this value (default 1: any co-occurrence).
	MinPairCount int
	// MaxIter bounds gradient-ascent epochs.
	MaxIter int
	// Tol declares convergence on relative likelihood gain.
	Tol float64
	// LearnRate is the base step of the Adagrad-preconditioned ascent.
	LearnRate float64
	// InitRate is the uniform initial rate of every candidate edge.
	InitRate float64
	Seed     uint64
}

func (c Config) withDefaults() Config {
	if c.MinPairCount < 1 {
		c.MinPairCount = 1
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 50
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.5
	}
	if c.InitRate <= 0 {
		c.InitRate = 0.1
	}
	return c
}

// CandidateEdges builds the candidate set: ordered pairs (u, v) with u
// infected before v in at least minPairCount cascades.
func CandidateEdges(cs []*cascade.Cascade, minPairCount int) map[[2]int]int {
	counts := map[[2]int]int{}
	for _, c := range cs {
		infs := c.Infections
		for i := 0; i < len(infs); i++ {
			for j := i + 1; j < len(infs); j++ {
				counts[[2]int{infs[i].Node, infs[j].Node}]++
			}
		}
	}
	if minPairCount > 1 {
		for k, v := range counts {
			if v < minPairCount {
				delete(counts, k)
			}
		}
	}
	return counts
}

// Fit maximizes the cascade likelihood over the candidate edge rates
// with monotone Adagrad-preconditioned projected gradient ascent — the
// same optimizer family as the embedding model, so runtime comparisons
// are apples-to-apples. It returns the fitted model and the
// log-likelihood trajectory.
func Fit(cs []*cascade.Cascade, n int, cfg Config) (*Model, []float64, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		return nil, nil, fmt.Errorf("netrate: n must be positive, got %d", n)
	}
	if err := cascade.ValidateAll(cs, n); err != nil {
		return nil, nil, err
	}
	candidates := CandidateEdges(cs, cfg.MinPairCount)
	if len(candidates) == 0 {
		return nil, nil, fmt.Errorf("netrate: no candidate edges (need multi-node cascades)")
	}
	m := &Model{n: n, rates: make([]float64, 0, len(candidates)), edgeIndex: make(map[[2]int]int, len(candidates))}
	// Deterministic edge order: iterate cascades again so indices do not
	// depend on map iteration order.
	seen := map[[2]int]bool{}
	for _, c := range cs {
		infs := c.Infections
		for i := 0; i < len(infs); i++ {
			for j := i + 1; j < len(infs); j++ {
				key := [2]int{infs[i].Node, infs[j].Node}
				if seen[key] {
					continue
				}
				if _, ok := candidates[key]; !ok {
					continue
				}
				seen[key] = true
				m.edgeIndex[key] = len(m.rates)
				m.rates = append(m.rates, cfg.InitRate)
			}
		}
	}
	// Tiny jitter breaks symmetry deterministically.
	rng := xrand.New(cfg.Seed)
	for i := range m.rates {
		m.rates[i] *= 0.9 + 0.2*rng.Float64()
	}

	grad := make([]float64, len(m.rates))
	acc := make([]float64, len(m.rates))
	cand := make([]float64, len(m.rates))
	cur := m.LogLikAll(cs)
	lls := []float64{cur}
	const minLR = 1e-12
	for iter := 0; iter < cfg.MaxIter; iter++ {
		for i := range grad {
			grad[i] = 0
		}
		for _, c := range cs {
			m.accumGrad(c, grad)
		}
		for i, g := range grad {
			acc[i] += g * g
			if acc[i] > 0 {
				grad[i] = g / math.Sqrt(acc[i]+1e-8)
			}
		}
		improved := false
		var ll float64
		saved := append([]float64(nil), m.rates...)
		for lr := cfg.LearnRate; lr >= minLR; lr /= 2 {
			copy(cand, saved)
			for i := range cand {
				cand[i] += lr * grad[i]
				if cand[i] < 0 {
					cand[i] = 0
				}
			}
			copy(m.rates, cand)
			ll = m.LogLikAll(cs)
			if ll >= cur {
				improved = true
				break
			}
		}
		if !improved {
			copy(m.rates, saved)
			break
		}
		gain := ll - cur
		cur = ll
		lls = append(lls, ll)
		if gain <= cfg.Tol*(1+math.Abs(cur)) {
			break
		}
	}
	return m, lls, nil
}

// LogLik computes one cascade's log-likelihood under the edge rates.
// Complexity O(s^2) in the cascade length — the structural disadvantage
// the paper's node model removes.
func (m *Model) LogLik(c *cascade.Cascade) float64 {
	infs := c.Infections
	var ll float64
	for j := 1; j < len(infs); j++ {
		v := infs[j]
		var hazard float64
		for i := 0; i < j; i++ {
			l := infs[i]
			rate := m.Rate(l.Node, v.Node)
			if rate == 0 {
				continue
			}
			ll += (l.Time - v.Time) * rate
			hazard += rate
		}
		if hazard < epsRate {
			hazard = epsRate
		}
		ll += math.Log(hazard)
	}
	return ll
}

// LogLikAll sums LogLik over cascades.
func (m *Model) LogLikAll(cs []*cascade.Cascade) float64 {
	var s float64
	for _, c := range cs {
		s += m.LogLik(c)
	}
	return s
}

// accumGrad adds the gradient of LogLik(c) over the edge rates into g.
func (m *Model) accumGrad(c *cascade.Cascade, g []float64) {
	infs := c.Infections
	for j := 1; j < len(infs); j++ {
		v := infs[j]
		var hazard float64
		for i := 0; i < j; i++ {
			hazard += m.Rate(infs[i].Node, v.Node)
		}
		if hazard < epsRate {
			hazard = epsRate
		}
		for i := 0; i < j; i++ {
			l := infs[i]
			idx, ok := m.edgeIndex[[2]int{l.Node, v.Node}]
			if !ok {
				continue
			}
			g[idx] += (l.Time - v.Time) + 1/hazard
		}
	}
}
