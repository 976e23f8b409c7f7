// Package cooccur builds the frequent co-occurrence graph that drives the
// paper's community-based parallelization (§IV-B). For nodes u and v,
// with c(u) the number of cascades containing u and c(u,v) the number of
// cascades in which u is infected before v, the paper's directed weight is
//
//	w(u,v) = 2*c(u,v) / (c(u) + c(v))
//
// which lies in [0,1]. SLPA reads the graph undirected, so Build emits it
// that way: u and v are joined by one symmetric edge weighing
// w(u,v) + w(v,u), which lies in (0,2].
package cooccur

import (
	"fmt"
	"math"
	"slices"

	"viralcast/internal/cascade"
	"viralcast/internal/graph"
)

// Options has no fields: every pair of every cascade is counted and
// every pair that co-occurs gets its edge, so the graph is a function of
// the cascades alone. The type stays only so that callers passing
// Options{} keep compiling.
type Options struct{}

// span is one occurrence of a node in keys: its own key at keys[at], its
// cascade's segment ending at keys[end].
type span struct{ at, end int32 }

// Build constructs the symmetric co-occurrence graph over n nodes from the
// given cascades: an arc u→v for every arc v→u, both of weight
// w(u,v) + w(v,u).
//
// Every cascade becomes one segment of keys, node<<32 | position,
// sorted by node, so the co-members above u of one occurrence of u are the
// keys after it in its segment. Each pair u < v is then visited from row
// u alone: one sweep sizes every row of the CSR exactly, and a second
// counts both orders of each pair in a dense counter and writes the edge
// into rows u and v. No pair is ever a map key.
func Build(cs []*cascade.Cascade, n int, _ Options) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cooccur: n must be positive, got %d", n)
	}
	if err := cascade.ValidateAll(cs, n); err != nil {
		return nil, fmt.Errorf("cooccur: %w", err)
	}
	nodeCount := make([]int, n) // c(u)
	start := make([]int, n+1)   // start[u]: index of u's first occurrence
	for _, c := range cs {
		for _, inf := range c.Infections {
			nodeCount[inf.Node]++
		}
	}
	copy(start[1:], nodeCount)
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	if n > math.MaxInt32 || start[n] > math.MaxInt32 {
		return nil, fmt.Errorf("cooccur: %d nodes and %d infections exceed the 32-bit index", n, start[n])
	}
	keys := make([]uint64, 0, start[n])
	occ := make([]span, start[n]) // occ[start[u]:start[u+1]]: u's occurrences
	next := append([]int(nil), start[:n]...)
	for _, c := range cs {
		lo := len(keys)
		for i, inf := range c.Infections {
			keys = append(keys, uint64(inf.Node)<<32|uint64(i))
		}
		slices.Sort(keys[lo:])
		for at := lo; at < len(keys); at++ {
			u := keys[at] >> 32
			occ[next[u]] = span{int32(at), int32(len(keys))}
			next[u]++
		}
	}

	// Size the rows: each distinct pair u < v is one arc in row u and one
	// in row v. offsets[u+1] holds row u's size until the prefix sum.
	offsets := make([]int, n+1)
	last := make([]int, n) // last[v] = u+1 once the pair (u, v) is counted
	for u := 0; u < n; u++ {
		arcs := 0
		for _, o := range occ[start[u]:start[u+1]] {
			for _, k := range keys[o.at+1 : o.end] {
				v := k >> 32
				// Stored unconditionally so the count compiles to a
				// conditional move, not a branch on fresh data.
				fresh := 0
				if last[v] != u+1 {
					fresh = 1
				}
				last[v] = u + 1
				offsets[v+1] += fresh
				arcs += fresh
			}
		}
		offsets[u+1] += arcs
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}

	// Fill the rows in order of u: row u gets its v > u here, after every
	// smaller u has written itself into it, so each row comes out sorted.
	targets := make([]int, offsets[n])
	weights := make([]float64, offsets[n])
	fill := next // fill[u]: where row u's next arc goes
	copy(fill, offsets[:n])
	weight := func(c uint64, u, v int) float64 {
		return 2 * float64(c) / float64(nodeCount[u]+nodeCount[v])
	}
	pairCount := make([]uint64, n) // row u: c(u,v)<<32 | c(v,u), zero between rows
	var seen []int                 // the v with pairCount[v] > 0
	for u := 0; u < n; u++ {
		for _, o := range occ[start[u]:start[u+1]] {
			pos := uint32(keys[o.at])
			for _, k := range keys[o.at+1 : o.end] {
				v := k >> 32
				if pairCount[v] == 0 {
					seen = append(seen, int(v))
				}
				inc := uint64(1)
				if uint32(k) > pos { // u before v
					inc = 1 << 32
				}
				pairCount[v] += inc
			}
		}
		slices.Sort(seen)
		for _, v := range seen {
			c := pairCount[v]
			pairCount[v] = 0
			// An order that never occurs weighs +0, and x + 0 is x.
			w := weight(c>>32, u, v) + weight(c&math.MaxUint32, v, u)
			targets[fill[u]], weights[fill[u]] = v, w
			targets[fill[v]], weights[fill[v]] = u, w
			fill[u]++
			fill[v]++
		}
		seen = seen[:0]
	}
	g, err := graph.FromCSR(n, offsets, targets, weights)
	if err != nil {
		return nil, fmt.Errorf("cooccur: %w", err)
	}
	return g, nil
}
