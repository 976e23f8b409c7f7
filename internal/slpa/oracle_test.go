package slpa

import (
	"reflect"
	"sort"
	"testing"

	"viralcast/internal/graph"
	"viralcast/internal/sbm"
	"viralcast/internal/xrand"
)

// The functions below are the map-based SLPA this package shipped before
// the sorted-memory one: a map per node memory, a fresh map per listener,
// a sort per speak, and a mergeSmall that recounts every round. They stay
// here as the reference the new code must equal bit for bit, including
// the number of RNG draws.

func propagateViaMaps(und *graph.Graph, iterations int, rng *xrand.RNG) ([]map[int]int, []int) {
	n := und.N()
	memory := make([]map[int]int, n)
	memSize := make([]int, n)
	for u := range memory {
		memory[u] = map[int]int{u: 1}
		memSize[u] = 1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for it := 0; it < iterations; it++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, listener := range order {
			ts, ws := und.Neighbors(listener)
			if len(ts) == 0 {
				continue
			}
			received := map[int]float64{}
			for i, speaker := range ts {
				label := speakViaMap(memory[speaker], memSize[speaker], rng)
				received[label] += ws[i]
			}
			best, bestW := -1, -1.0
			for label, w := range received {
				if w > bestW || (w == bestW && label < best) {
					best, bestW = label, w
				}
			}
			memory[listener][best]++
			memSize[listener]++
		}
	}
	return memory, memSize
}

func speakViaMap(mem map[int]int, total int, rng *xrand.RNG) int {
	target := rng.Intn(total)
	labels := make([]int, 0, len(mem))
	for l := range mem {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	acc := 0
	for _, l := range labels {
		acc += mem[l]
		if target < acc {
			return l
		}
	}
	return labels[len(labels)-1]
}

func detectViaMaps(g *graph.Graph, opt Options, rng *xrand.RNG) *Partition {
	opt = opt.withDefaults()
	und := g.Undirected()
	memory, _ := propagateViaMaps(und, opt.Iterations, rng)
	membership := make([]int, g.N())
	for u := range membership {
		bestLabel, bestCount := -1, -1
		for label, cnt := range memory[u] {
			if cnt > bestCount || (cnt == bestCount && label < bestLabel) {
				bestLabel, bestCount = label, cnt
			}
		}
		membership[u] = bestLabel
	}
	p := FromMembership(membership)
	if opt.MinCommunitySize > 1 {
		p = mergeSmallViaMaps(und, p, opt.MinCommunitySize)
	}
	return p
}

func mergeSmallViaMaps(und *graph.Graph, p *Partition, minSize int) *Partition {
	membership := append([]int(nil), p.Membership...)
	for {
		counts := map[int]int{}
		for _, c := range membership {
			counts[c]++
		}
		smallID, smallN := -1, minSize
		for id, n := range counts {
			if n < smallN || (n == smallN && smallID != -1 && id < smallID) {
				smallID, smallN = id, n
			}
		}
		if smallID == -1 {
			break
		}
		weightTo := map[int]float64{}
		for u, c := range membership {
			if c != smallID {
				continue
			}
			ts, ws := und.Neighbors(u)
			for i, v := range ts {
				if membership[v] != smallID {
					weightTo[membership[v]] += ws[i]
				}
			}
		}
		target, bestW := -1, -1.0
		for id, w := range weightTo {
			if w > bestW || (w == bestW && id < target) {
				target, bestW = id, w
			}
		}
		if target == -1 {
			bestN := -1
			for id, n := range counts {
				if id != smallID && (n > bestN || (n == bestN && id < target)) {
					target, bestN = id, n
				}
			}
			if target == -1 {
				break
			}
		}
		for u, c := range membership {
			if c == smallID {
				membership[u] = target
			}
		}
	}
	return FromMembership(membership)
}

func detectOverlappingViaMaps(g *graph.Graph, opt Options, r float64, rng *xrand.RNG) *Cover {
	opt = opt.withDefaults()
	n := g.N()
	memory, memSize := propagateViaMaps(g.Undirected(), opt.Iterations, rng)
	rawMemberships := make([][]int, n)
	labelsSeen := map[int]int{}
	var communities [][]int
	for u := 0; u < n; u++ {
		var kept []int
		bestLabel, bestCount := -1, -1
		for label, cnt := range memory[u] {
			if float64(cnt)/float64(memSize[u]) >= r {
				kept = append(kept, label)
			}
			if cnt > bestCount || (cnt == bestCount && label < bestLabel) {
				bestLabel, bestCount = label, cnt
			}
		}
		if len(kept) == 0 {
			kept = []int{bestLabel}
		}
		sort.Ints(kept)
		for _, label := range kept {
			id, ok := labelsSeen[label]
			if !ok {
				id = len(communities)
				labelsSeen[label] = id
				communities = append(communities, nil)
			}
			communities[id] = append(communities[id], u)
			rawMemberships[u] = append(rawMemberships[u], id)
		}
	}
	for _, members := range communities {
		sort.Ints(members)
	}
	for _, comms := range rawMemberships {
		sort.Ints(comms)
	}
	return &Cover{Memberships: rawMemberships, Communities: communities}
}

// randomDigraph draws a weighted digraph with isolated nodes, reciprocal
// pairs and, half the time, weights from a three-value set so that
// received totals tie and the lowest-label rule decides.
func randomDigraph(rng *xrand.RNG) *graph.Graph {
	n := 1 + rng.Intn(60)
	coarse := rng.Intn(2) == 0
	b := graph.NewBuilder(n)
	for i := rng.Intn(5 * n); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || u%9 == 4 || v%9 == 4 { // nodes 4, 13, ... stay isolated
			continue
		}
		w := rng.Float64()
		if coarse {
			w = float64(1+rng.Intn(3)) / 4
		}
		_ = b.AddEdge(u, v, w)
		if rng.Intn(3) == 0 {
			_ = b.AddEdge(v, u, w)
		}
	}
	return b.Build()
}

// identityCases are the graphs the old-vs-new tests run on: seeded random
// digraphs plus the SBM fixture of TestDetectSBMRecovery.
func identityCases(t *testing.T) []*graph.Graph {
	t.Helper()
	g, _, err := sbm.Generate(sbm.Params{N: 200, BlockSize: 40, Alpha: 0.4, Beta: 0.002}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	cases := []*graph.Graph{g, twoCliques(t), bridgedCliques(t), graph.NewBuilder(4).Build()}
	rng := xrand.New(14)
	for i := 0; i < 60; i++ {
		cases = append(cases, randomDigraph(rng))
	}
	return cases
}

var identityOptions = []Options{
	{Iterations: 1}, {Iterations: 30}, {Iterations: 50},
	{Iterations: 30, MinCommunitySize: 8}, {MinCommunitySize: 8},
}

func TestDetectMatchesMapOracle(t *testing.T) {
	for ci, g := range identityCases(t) {
		for _, opt := range identityOptions {
			seed := uint64(1000*ci + opt.Iterations)
			rng, orng := xrand.New(seed), xrand.New(seed)
			got, want := Detect(g, opt, rng), detectViaMaps(g, opt, orng)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d (n=%d, m=%d) %+v: partition differs from the map oracle\n got %v\nwant %v",
					ci, g.N(), g.M(), opt, got.Membership, want.Membership)
			}
			if a, b := rng.Uint64(), orng.Uint64(); a != b {
				t.Fatalf("graph %d %+v: RNG position differs after Detect (next draw %d, oracle %d)", ci, opt, a, b)
			}
		}
	}
}

func TestDetectOverlappingMatchesMapOracle(t *testing.T) {
	for ci, g := range identityCases(t) {
		for _, opt := range identityOptions[:3] {
			for _, r := range []float64{0.05, 0.2, 0.5, 1} {
				seed := uint64(1000*ci + opt.Iterations)
				rng, orng := xrand.New(seed), xrand.New(seed)
				got, err := DetectOverlapping(g, opt, r, rng)
				if err != nil {
					t.Fatal(err)
				}
				want := detectOverlappingViaMaps(g, opt, r, orng)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("graph %d (n=%d, m=%d) %+v r=%v: cover differs from the map oracle\n got %v\nwant %v",
						ci, g.N(), g.M(), opt, r, got.Memberships, want.Memberships)
				}
				if a, b := rng.Uint64(), orng.Uint64(); a != b {
					t.Fatalf("graph %d %+v r=%v: RNG position differs after DetectOverlapping", ci, opt, r)
				}
			}
		}
	}
}

// mergeSmall on its own, from partitions SLPA would not produce: many
// singleton and isolated communities, so the isolated branch, chains of
// merges into a still-small target, and weight ties all occur.
func TestMergeSmallMatchesMapOracle(t *testing.T) {
	rng := xrand.New(15)
	for trial := 0; trial < 300; trial++ {
		und := randomDigraph(rng).Undirected()
		membership := make([]int, und.N())
		k := 1 + rng.Intn(und.N())
		for u := range membership {
			membership[u] = rng.Intn(k)
		}
		p := FromMembership(membership)
		before := append([]int(nil), p.Membership...)
		minSize := 2 + rng.Intn(8)
		got, want := mergeSmall(und, p, minSize), mergeSmallViaMaps(und, p, minSize)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, minSize=%d): merge differs from the map oracle\n from %v\n  got %v\n want %v",
				trial, und.N(), minSize, before, got.Membership, want.Membership)
		}
		if err := p.Validate(und.N()); err != nil || !reflect.DeepEqual(p.Membership, before) {
			t.Fatalf("trial %d: mergeSmall changed its input partition (%v)", trial, err)
		}
	}
}

// The sweep allocates nothing: what Detect allocates is the undirected
// graph, one block of memories and the partition, whatever the number of
// rounds. (The map version allocated about twice per arc per round.)
func TestDetectAllocationsIndependentOfIterations(t *testing.T) {
	g, _, err := sbm.Generate(sbm.Params{N: 200, BlockSize: 40, Alpha: 0.4, Beta: 0.002}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	und := g.Undirected()
	sweep := func(iterations int) float64 {
		return testing.AllocsPerRun(5, func() { propagate(und, iterations, xrand.New(3)) })
	}
	if a10, a50 := sweep(10), sweep(50); a10 != a50 {
		t.Errorf("propagate allocates %v times at 10 rounds but %v at 50", a10, a50)
	}
	detect := func(iterations int) float64 {
		return testing.AllocsPerRun(5, func() { Detect(g, Options{Iterations: iterations}, xrand.New(3)) })
	}
	// Building the partition costs a few allocations per community, and
	// the two runs need not find the same communities; one allocation
	// per listener per round would be 40 per node.
	if a10, a50 := detect(10), detect(50); a50 > a10+float64(g.N()) {
		t.Errorf("Detect allocates %v times at 10 rounds but %v at 50 (n=%d, %d arcs)", a10, a50, g.N(), und.M())
	}
}

// A community that absorbed a lower-numbered node and is still small is
// folded next, and its connection weights must be summed in node order as
// the oracle does: here (0.2+0.3)+0.1 = 0.6 ties with the other neighbor
// and the lower id wins, while 5's arcs first would give (0.1+0.2)+0.3 =
// 0.6000000000000001 and the opposite merge.
func TestMergeSmallSumsInNodeOrder(t *testing.T) {
	b := graph.NewBuilder(8)
	for _, e := range []struct {
		u, v int
		w    float64
	}{{2, 5, 0.9}, {2, 4, 0.2}, {2, 6, 0.3}, {5, 7, 0.1}, {5, 0, 0.6}} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	und := b.Build().Undirected()
	p := FromMembership([]int{0, 0, 1, 0, 2, 3, 2, 2}) // {0,1,3} {2} {4,6,7} {5}
	got, want := mergeSmall(und, p, 3), mergeSmallViaMaps(und, p, 3)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge differs from the map oracle: got %v, want %v", got.Membership, want.Membership)
	}
	if got.Membership[2] != got.Membership[0] {
		t.Fatalf("fixture no longer exercises the tie: %v", got.Membership)
	}
}
