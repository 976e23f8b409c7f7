// Package graph provides the directed weighted graph representation shared
// by the cascade simulator, the co-occurrence analysis, and the community
// detection algorithms. A Graph is an immutable CSR (compressed sparse
// row) form built from an edge list (FromEdges) or from rows a caller
// already produced in order (FromCSR). An undirected graph is a symmetric
// one, each edge stored as an arc in both rows: the co-occurrence graph
// (cooccur.Build) comes out that way, and it is the form SLPA reads.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a directed weighted edge.
type Edge struct {
	From, To int
	Weight   float64
}

// Graph is an immutable directed weighted graph in CSR form.
type Graph struct {
	n       int
	offsets []int // len n+1
	targets []int
	weights []float64
}

// FromEdges builds a Graph over n nodes from an edge list, which it does
// not modify. The edges of a repeated (From, To) pair merge into one
// whose weight is their sum, taken from 0 in list order, so the result
// does not depend on anything but the list.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: FromEdges needs n >= 0, got %d", n)
	}
	sorted := append([]Edge(nil), edges...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].From != sorted[j].From {
			return sorted[i].From < sorted[j].From
		}
		return sorted[i].To < sorted[j].To
	})
	offsets := make([]int, n+1)
	targets := make([]int, 0, len(sorted))
	weights := make([]float64, 0, len(sorted))
	for i := 0; i < len(sorted); {
		e := sorted[i]
		if e.From < 0 || e.From >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		var w float64
		for ; i < len(sorted) && sorted[i].From == e.From && sorted[i].To == e.To; i++ {
			w += sorted[i].Weight
		}
		offsets[e.From+1]++
		targets, weights = append(targets, e.To), append(weights, w)
	}
	for u := 1; u <= n; u++ {
		offsets[u] += offsets[u-1]
	}
	return FromCSR(n, offsets, targets, weights)
}

// FromCSR wraps ready-made CSR arrays as a Graph without copying them;
// the caller must not touch the slices afterwards. It is the constructor
// for code that already produces rows in order (package cooccur).
// Everything a Graph guarantees is checked: offsets start at 0, never
// decrease and end at len(targets) == len(weights); every target is in
// [0, n), is not its own row (no self-loops), and is strictly greater
// than its predecessor in the row (sorted, no parallel edges).
func FromCSR(n int, offsets, targets []int, weights []float64) (*Graph, error) {
	if n < 0 || len(offsets) != n+1 || offsets[0] != 0 {
		return nil, fmt.Errorf("graph: FromCSR needs n >= 0 and n+1 offsets starting at 0, got n=%d and %d offsets", n, len(offsets))
	}
	if offsets[n] != len(targets) || len(targets) != len(weights) {
		return nil, fmt.Errorf("graph: FromCSR offsets end at %d but there are %d targets and %d weights",
			offsets[n], len(targets), len(weights))
	}
	for u := 0; u < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		if lo > hi || hi > len(targets) {
			return nil, fmt.Errorf("graph: FromCSR offsets not monotone at node %d: row [%d,%d) of %d arcs", u, lo, hi, len(targets))
		}
		for i := lo; i < hi; i++ {
			v := targets[i]
			if v < 0 || v >= n {
				return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
			}
			if v == u {
				return nil, fmt.Errorf("graph: self-loop on node %d rejected", u)
			}
			if i > lo && targets[i-1] >= v {
				return nil, fmt.Errorf("graph: FromCSR targets of node %d not strictly ascending (%d then %d)", u, targets[i-1], v)
			}
		}
	}
	return &Graph{n: n, offsets: offsets, targets: targets, weights: weights}, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Graph) M() int { return len(g.targets) }

// Neighbors returns the out-neighbor ids and weights of node u as slices
// aliasing the graph's storage; callers must not mutate them.
func (g *Graph) Neighbors(u int) (targets []int, weights []float64) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u int) int { return g.offsets[u+1] - g.offsets[u] }

// Weight returns the weight of edge (u, v) and whether it exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	ts, ws := g.Neighbors(u)
	// Rows are sorted by target; binary search.
	i := sort.SearchInts(ts, v)
	if i < len(ts) && ts[i] == v {
		return ws[i], true
	}
	return 0, false
}

// Edges returns all edges in (from, to) order. The slice is freshly
// allocated on every call.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		ts, ws := g.Neighbors(u)
		for i, v := range ts {
			out = append(out, Edge{From: u, To: v, Weight: ws[i]})
		}
	}
	return out
}

// ConnectedComponents returns, treating edges as undirected, the component
// id of every node plus the number of components. Components are numbered
// in order of their smallest node id.
func (g *Graph) ConnectedComponents() (comp []int, count int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	// Build reverse adjacency once so BFS sees both directions.
	rev := make([][]int, g.n)
	for u := 0; u < g.n; u++ {
		ts, _ := g.Neighbors(u)
		for _, v := range ts {
			rev[v] = append(rev[v], u)
		}
	}
	var queue []int
	for start := 0; start < g.n; start++ {
		if comp[start] != -1 {
			continue
		}
		comp[start] = count
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			ts, _ := g.Neighbors(u)
			for _, v := range ts {
				if comp[v] == -1 {
					comp[v] = count
					queue = append(queue, v)
				}
			}
			for _, v := range rev[u] {
				if comp[v] == -1 {
					comp[v] = count
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return comp, count
}
