// Package sbm generates Stochastic Block Model graphs, the synthetic
// network family the paper uses for all controlled experiments (§VI-A):
// n nodes are partitioned into equal-size blocks; an edge inside a block
// appears with probability alpha, an edge across blocks with probability
// beta << alpha. The paper's configuration is n=2000, alpha=0.2,
// beta=0.001, blocks of ~40 nodes (average degree ~10).
package sbm

import (
	"fmt"
	"math"
	"slices"

	"viralcast/internal/graph"
	"viralcast/internal/xrand"
)

// Params configures the generator.
type Params struct {
	N         int     // number of nodes
	BlockSize int     // nodes per community (last block may be smaller)
	Alpha     float64 // intra-community edge probability
	Beta      float64 // inter-community edge probability
	Directed  bool    // if false, each generated edge is added in both directions
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("sbm: N must be positive, got %d", p.N)
	}
	if p.BlockSize <= 0 {
		return fmt.Errorf("sbm: BlockSize must be positive, got %d", p.BlockSize)
	}
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("sbm: Alpha out of [0,1]: %v", p.Alpha)
	}
	if p.Beta < 0 || p.Beta > 1 {
		return fmt.Errorf("sbm: Beta out of [0,1]: %v", p.Beta)
	}
	return nil
}

// NumBlocks returns the number of communities the parameters imply.
func (p Params) NumBlocks() int {
	return (p.N + p.BlockSize - 1) / p.BlockSize
}

// Block returns the planted community of node u.
func (p Params) Block(u int) int { return u / p.BlockSize }

// Generate samples an SBM graph. The returned membership slice gives the
// planted community of every node. Edge sampling is O(#intra pairs +
// E[#inter edges]): inter-community edges are drawn by geometric skipping
// rather than testing all O(n^2) pairs, so paper-scale graphs (beta ~ 1e-3)
// generate quickly.
func Generate(p Params, rng *xrand.RNG) (*graph.Graph, []int, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	membership := make([]int, p.N)
	for u := range membership {
		membership[u] = p.Block(u)
	}
	// Arcs in draw order. Every ordered pair is drawn at most once and
	// u != v by construction, so there is nothing to accumulate.
	var from, to []int
	add := func(u, v int) {
		from, to = append(from, u), append(to, v)
		if !p.Directed {
			from, to = append(from, v), append(to, u)
		}
	}
	// Intra-community pairs: dense enough (alpha=0.2) that direct testing
	// is fine — blocks are small (~40 nodes).
	nb := p.NumBlocks()
	for blk := 0; blk < nb; blk++ {
		lo := blk * p.BlockSize
		hi := lo + p.BlockSize
		if hi > p.N {
			hi = p.N
		}
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				if rng.Bernoulli(p.Alpha) {
					add(u, v)
				}
				if p.Directed && rng.Bernoulli(p.Alpha) {
					add(v, u)
				}
			}
		}
	}
	// Inter-community pairs: enumerate by geometric skipping over the
	// implicit sequence of cross pairs.
	if p.Beta > 0 {
		sampleCross(p, rng, add)
	}
	g, err := csr(p.N, from, to)
	return g, membership, err
}

// csr buckets unit-weight arcs by source with a counting sort, orders
// each row by target and hands the arrays to graph.FromCSR.
func csr(n int, from, to []int) (*graph.Graph, error) {
	offsets := make([]int, n+1)
	for _, u := range from {
		offsets[u+1]++
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	next := slices.Clone(offsets[:n])
	targets := make([]int, len(to))
	weights := make([]float64, len(to))
	for i, u := range from {
		targets[next[u]], weights[next[u]] = to[i], 1
		next[u]++
	}
	for u := 0; u < n; u++ {
		slices.Sort(targets[offsets[u]:offsets[u+1]])
	}
	return graph.FromCSR(n, offsets, targets, weights)
}

// sampleCross draws Bernoulli(beta) over every ordered-up pair (u < v) in
// different blocks by skipping ahead geometrically.
func sampleCross(p Params, rng *xrand.RNG, add func(u, v int)) {
	// The cross pairs, in lexicographic order of (u, v) with u < v and
	// different blocks, form a virtual sequence. We iterate over it with
	// geometric jumps: skip ~ Geometric(beta).
	total := 0
	crossCount := make([]int, p.N) // number of cross pairs (u, v>u) for each u
	for u := 0; u < p.N; u++ {
		blk := p.Block(u)
		hiSame := (blk + 1) * p.BlockSize
		if hiSame > p.N {
			hiSame = p.N
		}
		crossCount[u] = p.N - hiSame
		total += crossCount[u]
	}
	// Prefix sums for locating a flat index.
	prefix := make([]int, p.N+1)
	for u := 0; u < p.N; u++ {
		prefix[u+1] = prefix[u] + crossCount[u]
	}
	locate := func(flat int) (int, int) {
		// Binary search for u with prefix[u] <= flat < prefix[u+1].
		lo, hi := 0, p.N
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if prefix[mid] <= flat {
				lo = mid
			} else {
				hi = mid
			}
		}
		u := lo
		offset := flat - prefix[u]
		blk := p.Block(u)
		hiSame := (blk + 1) * p.BlockSize
		if hiSame > p.N {
			hiSame = p.N
		}
		return u, hiSame + offset
	}
	pos := geometricSkip(rng, p.Beta)
	for pos < total {
		u, v := locate(pos)
		add(u, v)
		if p.Directed {
			// Directed graphs need an independent draw for the reverse arc.
			if rng.Bernoulli(p.Beta) {
				add(v, u)
			}
		}
		pos += 1 + geometricSkip(rng, p.Beta)
	}
}

// geometricSkip returns the number of failures before the first success of
// a Bernoulli(prob) sequence.
func geometricSkip(rng *xrand.RNG, prob float64) int {
	if prob >= 1 {
		return 0
	}
	// Inverse CDF of the geometric distribution.
	u := rng.Float64()
	if u == 0 {
		return 0
	}
	k := int(math.Log(1-u) / math.Log(1-prob))
	if k < 0 {
		k = 0
	}
	return k
}
