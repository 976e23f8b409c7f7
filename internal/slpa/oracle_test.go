package slpa

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"viralcast/internal/graph"
	"viralcast/internal/sbm"
	"viralcast/internal/xrand"
)

// The functions below are the map-based SLPA this package shipped before
// the sorted-memory one: a map per node memory, a fresh map per listener
// and a sort per speak. They stay
// here as the reference the new code must equal bit for bit, including
// the number of RNG draws. They draw every random number on the calling
// goroutine, in sweep order; propagate draws them on a second one. They
// also run every round, where propagate stops once its partition is
// certain, so propagateViaMaps records where the RNG stands after each
// round: rngAfter[r] is the RNG after r rounds.

func propagateViaMaps(und adjacency, iterations int, rng *xrand.RNG) (memory []map[int]int, memSize []int, rngAfter []xrand.RNG) {
	n := und.N()
	memory = make([]map[int]int, n)
	memSize = make([]int, n)
	rngAfter = []xrand.RNG{*rng}
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
		rngAfter = append(rngAfter, *rng)
	}
	return memory, memSize, rngAfter
}

// mapModal is a map memory's most frequent label (ties: lowest).
func mapModal(mem map[int]int) int {
	bestLabel, bestCount := -1, -1
	for label, cnt := range mem {
		if cnt > bestCount || (cnt == bestCount && label < bestLabel) {
			bestLabel, bestCount = label, cnt
		}
	}
	return bestLabel
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

func detectViaMaps(g *graph.Graph, iterations int, rng *xrand.RNG) (*Partition, []xrand.RNG) {
	memory, _, rngAfter := propagateViaMaps(g, iterations, rng)
	membership := make([]int, g.N())
	for u := range membership {
		membership[u] = mapModal(memory[u])
	}
	return FromMembership(membership), rngAfter
}

// randomGraph draws a weighted digraph with isolated nodes, reciprocal
// pairs and, half the time, weights from a three-value set so that
// received totals tie and the lowest-label rule decides, and returns it
// undirected.
func randomGraph(t *testing.T, rng *xrand.RNG) *graph.Graph {
	n := 1 + rng.Intn(60)
	coarse := rng.Intn(2) == 0
	var edges []graph.Edge
	for i := rng.Intn(5 * n); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || u%9 == 4 || v%9 == 4 { // nodes 4, 13, ... stay isolated
			continue
		}
		w := rng.Float64()
		if coarse {
			w = float64(1+rng.Intn(3)) / 4
		}
		edges = append(edges, graph.Edge{From: u, To: v, Weight: w})
		if rng.Intn(3) == 0 {
			edges = append(edges, graph.Edge{From: v, To: u, Weight: w})
		}
	}
	return undirected(t, n, edges)
}

// randomClustered draws the shape SLPA is for: up to four dense blocks
// joined by a few arcs, with isolated nodes (10, 21, ...), undirected.
func randomClustered(t *testing.T, rng *xrand.RNG) *graph.Graph {
	n, blocks := 2+rng.Intn(60), 1+rng.Intn(4)
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || u%11 == 10 || v%11 == 10 {
				continue
			}
			p := 0.02
			if u%blocks == v%blocks {
				p = 0.5
			}
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{From: u, To: v, Weight: float64(1+rng.Intn(3)) / 4})
			}
		}
	}
	return undirected(t, n, edges)
}

// identityCase is a graph the old-vs-new tests run on, at each T of
// iterations.
type identityCase struct {
	g          *graph.Graph
	iterations []int
}

// identityIterations are the round counts T every identity case runs;
// propagationRounds is Detect's.
var identityIterations = []int{1, 30, 50, propagationRounds}

// identityCases are seeded random graphs plus the SBM fixture of
// TestDetectSBMRecovery under identityIterations, and two graphs sized to
// the draw stream under a few rounds (the map oracle is slow on them): a
// clique whose every round is several chunks of draws, and a star whose
// hub hears more speakers than one chunk holds.
func identityCases(t *testing.T) []identityCase {
	t.Helper()
	g, _, err := sbm.Generate(sbm.Params{N: 200, BlockSize: 40, Alpha: 0.4, Beta: 0.002}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{g, twoCliques(t), bridgedCliques(t), fromEdges(t, 4, nil)}
	rng := xrand.New(14)
	for i := 0; i < 60; i++ {
		graphs = append(graphs, randomGraph(t, rng))
	}
	var cases []identityCase
	for _, g := range graphs {
		cases = append(cases, identityCase{g, identityIterations})
	}
	few := []int{1, 3}
	clique := 2
	for clique*(clique-1) < 3*drawChunk {
		clique++
	}
	return append(cases, identityCase{completeGraph(t, clique), few}, identityCase{starGraph(t, drawChunk+10), few})
}

// completeGraph is K_n with weights from three values, so totals tie.
func completeGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{From: u, To: v, Weight: float64(1 + (u*v)%3)})
		}
	}
	return undirected(t, n, edges)
}

// bridgedCliques builds two K6s sharing one bridge node (id 12) that is
// fully connected to both cliques.
func bridgedCliques(t *testing.T) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	add := func(u, v int) {
		edges = append(edges, graph.Edge{From: u, To: v, Weight: 1}, graph.Edge{From: v, To: u, Weight: 1})
	}
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			add(u, v)
		}
	}
	for u := 6; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			add(u, v)
		}
	}
	for u := 0; u < 12; u++ {
		add(u, 12)
	}
	return undirected(t, 13, edges)
}

// starGraph is node 0 linked to leaves 1..leaves, plus one isolated node.
func starGraph(t *testing.T, leaves int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for v := 1; v <= leaves; v++ {
		edges = append(edges, graph.Edge{From: v, To: 0, Weight: float64(1+v%3) / 2})
	}
	return undirected(t, leaves+2, edges)
}

// eachProcs runs f as a subtest at GOMAXPROCS 1, 2 and the ambient
// setting: the draws come from a second goroutine, and what it computes
// must not depend on whether it runs beside the sweep or between its
// chunks.
func eachProcs(t *testing.T, f func(t *testing.T)) {
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	procs := []int{1, 2, ambient}
	slices.Sort(procs)
	for _, p := range slices.Compact(procs) {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("procs=%d", p), f)
	}
}

// stopRNG is where propagate leaves the RNG after a stop at round rounds
// of iterations: one round of draws further, unless none is left.
func stopRNG(rngAfter []xrand.RNG, rounds, iterations int) xrand.RNG {
	return rngAfter[min(rounds+1, iterations)]
}

// Detect's partition equals the map oracle's after all T rounds, wherever
// it stopped; the RNG is one round past the stop. The stop round comes
// from propagate on the same seed.
func TestDetectMatchesMapOracle(t *testing.T) {
	cases := identityCases(t)
	eachProcs(t, func(t *testing.T) {
		for ci, c := range cases {
			for _, iterations := range c.iterations {
				seed := uint64(1000*ci + iterations)
				rng, orng := xrand.New(seed), xrand.New(seed)
				var got *Partition
				if iterations == propagationRounds {
					got = Detect(c.g, Options{}, rng)
				} else {
					got = detect(c.g, iterations, rng)
				}
				want, rngAfter := detectViaMaps(c.g, iterations, orng)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("graph %d (n=%d, m=%d) T=%d: partition differs from the map oracle\n got %v\nwant %v",
						ci, c.g.N(), c.g.M(), iterations, got.Membership, want.Membership)
				}
				_, rounds := propagate(c.g, iterations, xrand.New(seed))
				if *rng != stopRNG(rngAfter, rounds, iterations) {
					t.Fatalf("graph %d T=%d: RNG position after Detect is not the oracle's after %d of %d rounds",
						ci, iterations, min(rounds+1, iterations), iterations)
				}
			}
		}
	})
}

// rows is an adjacency graph.Graph will not build: a row may list its own
// node, so a listener is among its own speakers.
type rows struct {
	offsets, targets []int
	weights          []float64
}

func (r rows) N() int { return len(r.offsets) - 1 }

func (r rows) Neighbors(u int) ([]int, []float64) {
	lo, hi := r.offsets[u], r.offsets[u+1]
	return r.targets[lo:hi], r.weights[lo:hi]
}

// withSelfLoops copies und's rows and gives every even node a self-loop,
// isolated ones included, which then hear only themselves.
func withSelfLoops(und *graph.Graph) rows {
	r := rows{offsets: []int{0}}
	for u := 0; u < und.N(); u++ {
		ts, ws := und.Neighbors(u)
		i := sort.SearchInts(ts, u)
		r.targets, r.weights = append(r.targets, ts[:i]...), append(r.weights, ws[:i]...)
		if u%2 == 0 {
			r.targets, r.weights = append(r.targets, u), append(r.weights, 0.5)
		}
		r.targets, r.weights = append(r.targets, ts[i:]...), append(r.weights, ws[i:]...)
		r.offsets = append(r.offsets, len(r.targets))
	}
	return r
}

// propagate against the map oracle, memory for memory after the rounds it
// ran, on rows with self-loops: a listener that hears itself speaks from
// the memory it had before its own turn.
func TestPropagateMatchesMapOracle(t *testing.T) {
	rng := xrand.New(16)
	var graphs []rows
	for i := 0; i < 30; i++ {
		graphs = append(graphs, withSelfLoops(randomGraph(t, rng)))
	}
	eachProcs(t, func(t *testing.T) {
		for gi, g := range graphs {
			for _, iterations := range []int{1, 2, 30} {
				seed := uint64(100*gi + iterations)
				prng := xrand.New(seed)
				got, rounds := propagate(g, iterations, prng)
				if rounds < 1 || rounds > iterations {
					t.Fatalf("graph %d: %d rounds run of %d", gi, rounds, iterations)
				}
				maps, sizes, _ := propagateViaMaps(g, rounds, xrand.New(seed))
				_, _, rngAfter := propagateViaMaps(g, iterations, xrand.New(seed))
				for u, m := range maps {
					want := make([]int32, 0, sizes[u])
					for label, count := range m {
						for ; count > 0; count-- {
							want = append(want, int32(label))
						}
					}
					slices.Sort(want)
					if !slices.Equal(got[u], want) {
						t.Fatalf("graph %d, %d of %d rounds, node %d: memory %v, map oracle %v", gi, rounds, iterations, u, got[u], want)
					}
				}
				if *prng != stopRNG(rngAfter, rounds, iterations) {
					t.Fatalf("graph %d, %d of %d rounds: RNG position after propagate is not the oracle's after %d",
						gi, rounds, iterations, min(rounds+1, iterations))
				}
			}
		}
	})
}

// Property: wherever propagate stops, every node's modal label is the one
// the map oracle leaves it after all T rounds, and Detect's partition is
// the full run's. T cycles through 1, 2, 5, 20, 30 and 50, each block of
// six cases on one kind of graph: random graphs or clustered ones,
// isolated nodes included, each as a graph and as rows with self-loops;
// three stars have a hub that hears more speakers than a chunk holds. A
// third of the cases must stop early, or the property says nothing.
func TestDetectCertifiedStopMatchesFullRun(t *testing.T) {
	rounds := []int{1, 2, 5, 20, 30, 50}
	rng := xrand.New(17)
	const cases = 240
	early := 0
	for ci := 0; ci < cases; ci++ {
		iterations, seed := rounds[ci%len(rounds)], uint64(ci)
		block := ci / len(rounds)
		g := randomGraph(t, rng)
		switch {
		case ci%80 == 45:
			g = starGraph(t, drawChunk+10)
		case block/2%2 == 1:
			g = randomClustered(t, rng)
		}
		var und adjacency = g
		if block%2 == 1 {
			und = withSelfLoops(g)
		}
		memory, ran := propagate(und, iterations, xrand.New(seed))
		full, _, _ := propagateViaMaps(und, iterations, xrand.New(seed))
		membership := make([]int, len(full))
		for u := range full {
			membership[u] = mapModal(full[u])
			if got := int(modal(memory[u])); got != membership[u] {
				t.Fatalf("case %d (n=%d), stop after %d of %d rounds: node %d takes %d, the full run %d",
					ci, und.N(), ran, iterations, u, got, membership[u])
			}
		}
		if ran < iterations {
			early++
		}
		if _, loops := und.(rows); !loops {
			got, want := detect(g, iterations, xrand.New(seed)), FromMembership(membership)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d, %d rounds: Detect's partition %v, the full run's %v", ci, iterations, got.Membership, want.Membership)
			}
		}
	}
	if 3*early < cases {
		t.Fatalf("only %d of %d cases stopped before their last round", early, cases)
	}
	t.Logf("%d of %d cases stopped before their last round", early, cases)
}

// The draw producer exits with Detect, also when the rounds stop early
// and it is told so between two of its rounds: no goroutine outlives the
// call.
func TestDetectLeavesNoGoroutine(t *testing.T) {
	g := twoCliques(t)
	before := runtime.NumGoroutine()
	early := 0
	for i := 0; i < 20; i++ {
		detect(g, 1+i, xrand.New(uint64(i)))
		if _, rounds := propagate(g, 1+i, xrand.New(uint64(i))); rounds < 1+i {
			early++
		}
	}
	if early == 0 {
		t.Fatal("no call stopped before its last round")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 20 Detect calls, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// The sweep allocates nothing: what Detect allocates is one block of
// memories, the draw chunks and the partition, whatever the number of
// rounds, run or stopped. (The map version allocated about twice per arc
// per round.)
//
// The first GC cycle of a process starts the runtime's background mark
// workers, a goroutine and a node each, which AllocsPerRun counts as the
// caller's. Whether that cycle falls in one of the two windows depends on
// what ran before this test, so a GC up front starts them outside both.
func TestDetectAllocationsIndependentOfIterations(t *testing.T) {
	g, _, err := sbm.Generate(sbm.Params{N: 200, BlockSize: 40, Alpha: 0.4, Beta: 0.002}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	_, r10 := propagate(g, 10, xrand.New(3))
	_, r50 := propagate(g, 50, xrand.New(3))
	if r10 == r50 {
		t.Fatalf("both runs stopped after %d rounds; the comparison needs two lengths", r10)
	}
	runtime.GC()
	sweep := func(iterations int) float64 {
		return testing.AllocsPerRun(5, func() { propagate(g, iterations, xrand.New(3)) })
	}
	if a10, a50 := sweep(10), sweep(50); a10 != a50 {
		t.Errorf("propagate allocates %v times at 10 rounds (%d run) but %v at 50 (%d run)", a10, r10, a50, r50)
	}
	detect := func(iterations int) float64 {
		return testing.AllocsPerRun(5, func() { detect(g, iterations, xrand.New(3)) })
	}
	// Building the partition costs a few allocations per community, and
	// the two runs need not find the same communities; one allocation
	// per listener per round would be 40 per node.
	if a10, a50 := detect(10), detect(50); a50 > a10+float64(g.N()) {
		t.Errorf("Detect allocates %v times at 10 rounds but %v at 50 (n=%d, %d arcs)", a10, a50, g.N(), g.M())
	}
}
