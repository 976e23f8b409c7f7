// Package cooccur builds the frequent co-occurrence graph that drives the
// paper's community-based parallelization (§IV-B): for nodes u and v, the
// directed edge weight is
//
//	w(u,v) = 2*c(u,v) / (c(u) + c(v))
//
// where c(u) is the number of cascades containing u and c(u,v) the number
// of cascades in which u is infected before v. Weights lie in [0,1].
package cooccur

import (
	"fmt"
	"sort"

	"viralcast/internal/cascade"
	"viralcast/internal/graph"
)

// Options tunes graph construction.
type Options struct {
	// MinPairCount drops edges whose raw co-occurrence count c(u,v) is
	// below this value; 0 or 1 keeps everything. Large cascade sets
	// benefit from pruning rare co-occurrences before community detection.
	MinPairCount int
	// MaxCascadeSize skips counting pairs within cascades longer than
	// this, protecting against the O(s^2) pair blow-up of a handful of
	// giant cascades. 0 means no limit.
	MaxCascadeSize int
}

// Build constructs the co-occurrence graph over n nodes from the given
// cascades.
//
// Pairs are counted one source node at a time: every occurrence of u in a
// counted cascade is indexed by the infections that follow it, so row u
// of the graph is one sweep over those tails into a dense counter. The
// rows come out in CSR order and no pair is ever a map key.
func Build(cs []*cascade.Cascade, n int, opt Options) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cooccur: n must be positive, got %d", n)
	}
	counted := func(c *cascade.Cascade) bool {
		return opt.MaxCascadeSize <= 0 || c.Size() <= opt.MaxCascadeSize
	}
	if err := cascade.ValidateAll(cs, n); err != nil {
		return nil, fmt.Errorf("cooccur: %w", err)
	}
	nodeCount := make([]int, n) // c(u)
	start := make([]int, n+1)   // start[u]: index of u's first tail
	for _, c := range cs {
		pairs := counted(c)
		for _, inf := range c.Infections {
			nodeCount[inf.Node]++
			if pairs {
				start[inf.Node+1]++
			}
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	// tails[start[u]:start[u+1]] are the infections after each occurrence
	// of u; they alias the cascades.
	tails := make([][]cascade.Infection, start[n])
	next := append([]int(nil), start[:n]...)
	for _, c := range cs {
		if !counted(c) {
			continue
		}
		for i, inf := range c.Infections {
			tails[next[inf.Node]] = c.Infections[i+1:]
			next[inf.Node]++
		}
	}
	// Counting the arcs first sizes the CSR arrays once.
	arcs := countArcs(tails, start)
	offsets := make([]int, n+1)
	targets := make([]int, 0, arcs)
	weights := make([]float64, 0, arcs)
	pairCount := make([]int, n) // c(u,v) for the current u, zero between rows
	var seen []int              // the v with pairCount[v] > 0
	for u := 0; u < n; u++ {
		for _, tail := range tails[start[u]:start[u+1]] {
			for _, inf := range tail {
				if pairCount[inf.Node] == 0 {
					seen = append(seen, inf.Node)
				}
				pairCount[inf.Node]++
			}
		}
		sort.Ints(seen)
		for _, v := range seen {
			cnt := pairCount[v]
			pairCount[v] = 0
			if opt.MinPairCount > 1 && cnt < opt.MinPairCount {
				continue
			}
			targets = append(targets, v)
			weights = append(weights, 2*float64(cnt)/float64(nodeCount[u]+nodeCount[v]))
		}
		seen = seen[:0]
		offsets[u+1] = len(targets)
	}
	g, err := graph.FromCSR(n, offsets, targets, weights)
	if err != nil {
		return nil, fmt.Errorf("cooccur: %w", err)
	}
	return g, nil
}

// countArcs returns the number of distinct pairs (u, v) with v in one of
// u's tails, tails[start[u]:start[u+1]]: Build's arc count before the
// MinPairCount filter, which can only drop arcs.
func countArcs(tails [][]cascade.Infection, start []int) int {
	n := len(start) - 1
	last := make([]int, n) // last[v] = u+1 once v is counted for row u
	total := 0
	for u := 0; u < n; u++ {
		for _, tail := range tails[start[u]:start[u+1]] {
			for _, inf := range tail {
				// Stored unconditionally so the count compiles to a
				// conditional move, not a branch on fresh data.
				seen := last[inf.Node]
				last[inf.Node] = u + 1
				if seen != u+1 {
					total++
				}
			}
		}
	}
	return total
}
