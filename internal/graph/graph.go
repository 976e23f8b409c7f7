// Package graph provides the directed weighted graph representation shared
// by the cascade simulator, the co-occurrence analysis, and the community
// detection algorithms. Graphs are built incrementally and then frozen
// into a compact CSR (compressed sparse row) form for traversal.
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

// Builder accumulates edges before freezing into a Graph. Adding the same
// (from, to) pair multiple times accumulates the weights.
type Builder struct {
	n       int
	weights map[[2]int]float64
}

// NewBuilder creates a builder for a graph over n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: NewBuilder with negative n")
	}
	return &Builder{n: n, weights: make(map[[2]int]float64)}
}

// AddEdge accumulates weight w onto the directed edge (from, to).
// Self-loops are rejected because no algorithm in this repository uses
// them and they silently distort degree statistics.
func (b *Builder) AddEdge(from, to int, w float64) error {
	if from < 0 || from >= b.n || to < 0 || to >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", from, to, b.n)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on node %d rejected", from)
	}
	b.weights[[2]int{from, to}] += w
	return nil
}

// Build freezes the builder into an immutable Graph.
func (b *Builder) Build() *Graph {
	edges := make([]Edge, 0, len(b.weights))
	for k, w := range b.weights {
		edges = append(edges, Edge{From: k[0], To: k[1], Weight: w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	g := &Graph{
		n:       b.n,
		offsets: make([]int, b.n+1),
		targets: make([]int, len(edges)),
		weights: make([]float64, len(edges)),
	}
	for i, e := range edges {
		g.offsets[e.From+1]++
		g.targets[i] = e.To
		g.weights[i] = e.Weight
	}
	for i := 1; i <= b.n; i++ {
		g.offsets[i] += g.offsets[i-1]
	}
	return g
}

// Graph is an immutable directed weighted graph in CSR form.
type Graph struct {
	n       int
	offsets []int // len n+1
	targets []int
	weights []float64
}

// FromCSR wraps ready-made CSR arrays as a Graph without copying them;
// the caller must not touch the slices afterwards. It is the constructor
// for code that already produces rows in order (package cooccur) and has
// no use for the Builder's accumulation. Everything the Builder
// guarantees is checked: offsets start at 0, never decrease and end at
// len(targets) == len(weights); every target is in [0, n), is not its
// own row (no self-loops), and is strictly greater than its predecessor
// in the row (sorted, no parallel edges).
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
	// Targets are sorted by Build; binary search.
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

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, w := range g.weights {
		s += w
	}
	return s
}

// Undirected returns a new graph where each directed edge (u,v,w)
// contributes w to both (u,v) and (v,u). Useful for community detection
// on co-occurrence graphs that were built directionally.
//
// Row u of the result is the merge of u's out-row with its in-row (row u
// of the transpose). Both are sorted by neighbor, and a pair present in
// both directions gets the two-term sum w(u,v)+w(v,u), so the weights do
// not depend on the order the arcs are visited in.
func (g *Graph) Undirected() *Graph {
	// Transpose by counting sort: scanning sources in ascending order
	// leaves every in-row sorted by source.
	inOff := make([]int, g.n+1)
	for _, v := range g.targets {
		inOff[v+1]++
	}
	for i := 1; i <= g.n; i++ {
		inOff[i] += inOff[i-1]
	}
	inSrc := make([]int, g.M())
	inW := make([]float64, g.M())
	next := append([]int(nil), inOff[:g.n]...)
	for u := 0; u < g.n; u++ {
		ts, ws := g.Neighbors(u)
		for i, v := range ts {
			inSrc[next[v]], inW[next[v]] = u, ws[i]
			next[v]++
		}
	}
	// 2M bounds the arc count; it is reached when no edge is reciprocated.
	und := &Graph{
		n:       g.n,
		offsets: make([]int, g.n+1),
		targets: make([]int, 0, 2*g.M()),
		weights: make([]float64, 0, 2*g.M()),
	}
	for u := 0; u < g.n; u++ {
		ts, ws := g.Neighbors(u)
		ss, sw := inSrc[inOff[u]:inOff[u+1]], inW[inOff[u]:inOff[u+1]]
		for i, j := 0, 0; i < len(ts) || j < len(ss); {
			var v int
			var w float64
			switch {
			case j == len(ss) || (i < len(ts) && ts[i] < ss[j]):
				v, w, i = ts[i], ws[i], i+1
			case i == len(ts) || ss[j] < ts[i]:
				v, w, j = ss[j], sw[j], j+1
			default:
				v, w, i, j = ts[i], ws[i]+sw[j], i+1, j+1
			}
			und.targets, und.weights = append(und.targets, v), append(und.weights, w)
		}
		und.offsets[u+1] = len(und.targets)
	}
	return und
}

// DegreeHistogram returns a map from out-degree to node count.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for u := 0; u < g.n; u++ {
		h[g.OutDegree(u)]++
	}
	return h
}

// AverageDegree returns the mean out-degree.
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.M()) / float64(g.n)
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

// Subgraph returns the induced subgraph on the given nodes, plus the
// mapping from new ids (0..len(nodes)-1) back to original ids. Duplicate
// node ids in the input are an error.
func (g *Graph) Subgraph(nodes []int) (*Graph, []int, error) {
	idx := make(map[int]int, len(nodes))
	for i, u := range nodes {
		if u < 0 || u >= g.n {
			return nil, nil, fmt.Errorf("graph: Subgraph node %d out of range", u)
		}
		if _, dup := idx[u]; dup {
			return nil, nil, fmt.Errorf("graph: Subgraph duplicate node %d", u)
		}
		idx[u] = i
	}
	b := NewBuilder(len(nodes))
	for _, u := range nodes {
		ts, ws := g.Neighbors(u)
		for i, v := range ts {
			if j, ok := idx[v]; ok {
				if err := b.AddEdge(idx[u], j, ws[i]); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	back := append([]int(nil), nodes...)
	return b.Build(), back, nil
}
