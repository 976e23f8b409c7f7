package cooccur

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/graph"
	"viralcast/internal/xrand"
)

// symmetrized is the undirected graph SLPA reads of a directed one: every
// arc goes into one edge list in both directions and graph.FromEdges sums
// each pair, w(u,v) + w(v,u).
func symmetrized(g *graph.Graph) (*graph.Graph, error) {
	var edges []graph.Edge
	for _, e := range g.Edges() {
		edges = append(edges, e, graph.Edge{From: e.To, To: e.From, Weight: e.Weight})
	}
	return graph.FromEdges(g.N(), edges)
}

// buildViaMaps is the Build this package shipped before the CSR one:
// ordered pairs counted in a map and handed to graph.FromEdges, which
// gives the directed graph of weights w(u,v). Symmetrized, it stays here
// as the reference the new code must equal bit for bit.
func buildViaMaps(cs []*cascade.Cascade, n int) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cooccur: n must be positive, got %d", n)
	}
	nodeCount := make([]int, n)   // c(u)
	pairCount := map[[2]int]int{} // c(u,v), u infected before v
	for _, c := range cs {
		if err := cascade.ValidateAll([]*cascade.Cascade{c}, n); err != nil {
			return nil, fmt.Errorf("cooccur: %w", err)
		}
		for _, inf := range c.Infections {
			nodeCount[inf.Node]++
		}
		infs := c.Infections
		for i := 0; i < len(infs); i++ {
			for j := i + 1; j < len(infs); j++ {
				pairCount[[2]int{infs[i].Node, infs[j].Node}]++
			}
		}
	}
	var edges []graph.Edge
	for pair, cnt := range pairCount {
		u, v := pair[0], pair[1]
		edges = append(edges, graph.Edge{From: u, To: v, Weight: 2 * float64(cnt) / float64(nodeCount[u]+nodeCount[v])})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("cooccur: %w", err)
	}
	return g, nil
}

// randomCascades draws cascades over n nodes of sizes 1 to 30; half of
// them stay inside a popular quarter of the nodes, so pairs recur and
// both orders of a pair occur.
func randomCascades(rng *xrand.RNG, n int) []*cascade.Cascade {
	var pool []int
	for u := 0; u < n; u++ {
		if u%11 != 5 { // nodes 5, 16, ... never appear
			pool = append(pool, u)
		}
	}
	cs := make([]*cascade.Cascade, 1+rng.Intn(60))
	for id := range cs {
		src := pool
		if rng.Intn(2) == 0 {
			src = pool[:1+len(pool)/4]
		}
		size := 1 + rng.Intn(30)
		if size > len(src) {
			size = len(src)
		}
		c := &cascade.Cascade{ID: id}
		for i, k := range rng.Perm(len(src))[:size] {
			c.Infections = append(c.Infections, cascade.Infection{Node: src[k], Time: float64(i)})
		}
		cs[id] = c
	}
	return cs
}

func TestBuildMatchesMapOracle(t *testing.T) {
	rng := xrand.New(14)
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(60)
		cs := randomCascades(rng, n)
		got, err := Build(cs, n, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		directed, err := buildViaMaps(cs, n)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		want, err := symmetrized(directed)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != want.N() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("trial %d (n=%d, %d cascades): Build differs from the map oracle\n got %v\nwant %v",
				trial, n, len(cs), got.Edges(), want.Edges())
		}
	}
}

// Both versions must refuse the same inputs; the CSR constructor's own
// checks are never the first to fire on a validated cascade.
func TestBuildErrorsMatchMapOracle(t *testing.T) {
	bad := [][]*cascade.Cascade{
		{casc(0, 0, 1), casc(1, 2, 2)},  // re-infection: would be a self-loop
		{casc(0, 0, 1), casc(1, 0, 7)},  // out of range
		{casc(0, 0, 1), {ID: 1}},        // empty
		{casc(0, 0, 1), casc(1, -1, 2)}, // negative id
	}
	for i, cs := range bad {
		_, err := Build(cs, 4, Options{})
		_, oerr := buildViaMaps(cs, 4)
		if err == nil || oerr == nil || err.Error() != oerr.Error() {
			t.Errorf("case %d: Build error %v, oracle error %v", i, err, oerr)
		}
	}
}

// buildByAppend is Build as it stood before it counted its arcs first:
// one sweep over the infections after each occurrence of u makes row u of
// the directed graph, the CSR arrays grown by append. Symmetrized, it is
// what Build must equal in every offset, target and weight bit.
func buildByAppend(cs []*cascade.Cascade, n int) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cooccur: n must be positive, got %d", n)
	}
	if err := cascade.ValidateAll(cs, n); err != nil {
		return nil, fmt.Errorf("cooccur: %w", err)
	}
	nodeCount := make([]int, n)
	start := make([]int, n+1)
	for _, c := range cs {
		for _, inf := range c.Infections {
			nodeCount[inf.Node]++
			start[inf.Node+1]++
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	tails := make([][]cascade.Infection, start[n])
	next := append([]int(nil), start[:n]...)
	for _, c := range cs {
		for i, inf := range c.Infections {
			tails[next[inf.Node]] = c.Infections[i+1:]
			next[inf.Node]++
		}
	}
	offsets := make([]int, n+1)
	var targets []int
	var weights []float64
	pairCount := make([]int, n)
	var seen []int
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
			targets = append(targets, v)
			weights = append(weights, 2*float64(cnt)/float64(nodeCount[u]+nodeCount[v]))
		}
		seen = seen[:0]
		offsets[u+1] = len(targets)
	}
	return graph.FromCSR(n, offsets, targets, weights)
}

// sameCSR reports the first row where two graphs' targets or weight bits
// differ, or -1.
func sameCSR(a, b *graph.Graph) int {
	if a.N() != b.N() {
		return 0
	}
	for u := 0; u < a.N(); u++ {
		at, aw := a.Neighbors(u)
		bt, bw := b.Neighbors(u)
		if len(at) != len(bt) {
			return u
		}
		for i := range at {
			if at[i] != bt[i] || math.Float64bits(aw[i]) != math.Float64bits(bw[i]) {
				return u
			}
		}
	}
	return -1
}

// symmetrizedByAppend is buildByAppend's graph, symmetrized.
func symmetrizedByAppend(cs []*cascade.Cascade, n int) (*graph.Graph, error) {
	g, err := buildByAppend(cs, n)
	if err != nil {
		return nil, err
	}
	return symmetrized(g)
}

func TestBuildMatchesAppendBuilder(t *testing.T) {
	rng := xrand.New(15)
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(60)
		cs := randomCascades(rng, n)
		got, err := Build(cs, n, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := symmetrizedByAppend(cs, n)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		if u := sameCSR(got, want); u >= 0 {
			t.Fatalf("trial %d (n=%d): row %d differs from the append builder", trial, n, u)
		}
	}
	cs := trainDraw(t)
	got, err := Build(cs, 800, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := symmetrizedByAppend(cs, 800)
	if err != nil {
		t.Fatal(err)
	}
	if u := sameCSR(got, want); u >= 0 {
		t.Fatalf("train draw: row %d differs from the append builder", u)
	}
	// The directed graph's 97,966 arcs join 58,998 pairs.
	if got.M() != 117996 {
		t.Fatalf("train draw has %d arcs, want 117996", got.M())
	}
}
