package slpa

import (
	"slices"
	"testing"
	"testing/quick"

	"viralcast/internal/graph"
	"viralcast/internal/sbm"
	"viralcast/internal/xrand"
)

func TestFromMembership(t *testing.T) {
	p := FromMembership([]int{5, 5, 9, 5, 9})
	if p.NumCommunities() != 2 {
		t.Fatalf("NumCommunities = %d", p.NumCommunities())
	}
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	// Dense renumbering in first-appearance order: label 5 -> 0, 9 -> 1.
	if p.Membership[0] != 0 || p.Membership[2] != 1 {
		t.Fatalf("Membership = %v", p.Membership)
	}
	if len(p.Communities[0]) != 3 || len(p.Communities[1]) != 2 {
		t.Fatalf("Communities = %v", p.Communities)
	}
	// Members sorted.
	for _, members := range p.Communities {
		for i := 1; i < len(members); i++ {
			if members[i-1] >= members[i] {
				t.Fatalf("community not sorted: %v", members)
			}
		}
	}
}

func TestValidateCatchesBadPartitions(t *testing.T) {
	p := FromMembership([]int{0, 0, 1})
	if err := p.Validate(2); err == nil {
		t.Error("wrong n accepted")
	}
	broken := &Partition{
		Membership:  []int{0, 0},
		Communities: [][]int{{0}},
	}
	if err := broken.Validate(2); err == nil {
		t.Error("uncovered node accepted")
	}
	dup := &Partition{
		Membership:  []int{0, 0},
		Communities: [][]int{{0, 0, 1}},
	}
	if err := dup.Validate(2); err == nil {
		t.Error("duplicated node accepted")
	}
}

func fromEdges(t testing.TB, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// undirected is the symmetric graph Detect takes, made from a directed
// edge list: the list's graph, each of its arcs then put in both
// directions and every pair summed by graph.FromEdges.
func undirected(t testing.TB, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	var both []graph.Edge
	for _, e := range fromEdges(t, n, edges).Edges() {
		both = append(both, e, graph.Edge{From: e.To, To: e.From, Weight: e.Weight})
	}
	return fromEdges(t, n, both)
}

// twoCliques returns two K5s joined by a single weak edge, undirected.
func twoCliques(t *testing.T) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	addClique := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				edges = append(edges, graph.Edge{From: u, To: v, Weight: 1}, graph.Edge{From: v, To: u, Weight: 1})
			}
		}
	}
	addClique(0, 5)
	addClique(5, 10)
	edges = append(edges, graph.Edge{From: 4, To: 5, Weight: 0.05})
	return undirected(t, 10, edges)
}

func TestDetectTwoCliques(t *testing.T) {
	g := twoCliques(t)
	p := detect(g, 60, xrand.New(1))
	if err := p.Validate(10); err != nil {
		t.Fatal(err)
	}
	// Nodes 0-4 must share a community, 5-9 another, and they must differ.
	for u := 1; u < 5; u++ {
		if p.Membership[u] != p.Membership[0] {
			t.Fatalf("clique 1 split: %v", p.Membership)
		}
	}
	for u := 6; u < 10; u++ {
		if p.Membership[u] != p.Membership[5] {
			t.Fatalf("clique 2 split: %v", p.Membership)
		}
	}
	if p.Membership[0] == p.Membership[5] {
		t.Fatalf("cliques merged: %v", p.Membership)
	}
}

func TestDetectSBMRecovery(t *testing.T) {
	// SLPA on a well-separated SBM should recover the planted blocks for
	// the vast majority of nodes.
	params := sbm.Params{N: 200, BlockSize: 40, Alpha: 0.4, Beta: 0.002}
	g, planted, err := sbm.Generate(params, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	p := detect(g, 40, xrand.New(3))
	if err := p.Validate(200); err != nil {
		t.Fatal(err)
	}
	// Compare by majority vote: each detected community's planted-purity.
	agree := 0
	for _, members := range p.Communities {
		counts := map[int]int{}
		for _, u := range members {
			counts[planted[u]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		agree += best
	}
	purity := float64(agree) / 200
	if purity < 0.9 {
		t.Errorf("SLPA purity %.3f < 0.9 on well-separated SBM", purity)
	}
	if p.NumCommunities() < 3 {
		t.Errorf("SLPA found only %d communities on a 5-block SBM", p.NumCommunities())
	}
}

func TestDetectIsolatedNodes(t *testing.T) {
	g := fromEdges(t, 4, nil) // no edges at all
	p := detect(g, 10, xrand.New(4))
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	if p.NumCommunities() != 4 {
		t.Fatalf("isolated nodes must stay singleton communities, got %d", p.NumCommunities())
	}
}

func TestDetectDeterministic(t *testing.T) {
	g := twoCliques(t)
	p1 := Detect(g, Options{}, xrand.New(7))
	p2 := Detect(g, Options{}, xrand.New(7))
	for u := range p1.Membership {
		if p1.Membership[u] != p2.Membership[u] {
			t.Fatalf("same seed, different partitions at node %d", u)
		}
	}
}

// Property: FromMembership output always validates and preserves
// co-membership relations.
func TestFromMembershipProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(30)
		membership := make([]int, n)
		for i := range membership {
			membership[i] = rng.Intn(6) * 10
		}
		p := FromMembership(membership)
		if p.Validate(n) != nil {
			return false
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := membership[u] == membership[v]
				got := p.Membership[u] == p.Membership[v]
				if same != got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDetectSBM(b *testing.B) {
	params := sbm.Params{N: 500, BlockSize: 40, Alpha: 0.3, Beta: 0.005}
	g, _, err := sbm.Generate(params, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(g, Options{}, xrand.New(uint64(i)))
	}
}

// tallyOf stores labels one at a time, as the sweep does, into a tally
// that starts at a node's own label.
func tallyOf(self int32, labels ...int32) tally {
	t := tally{lead: self, leadN: 1}
	count := map[int32]int32{self: 1}
	for _, l := range labels {
		count[l]++
		t.stored(l, count[l])
	}
	return t
}

// The certificate's edge: a lead must exceed the rounds left, and one
// that holds only by the lower-label tie rule is no lead at all.
func TestTallySettled(t *testing.T) {
	for _, c := range []struct {
		name       string
		t          tally
		roundsLeft int
		want       bool
	}{
		{"margin equal to the rounds left", tallyOf(4, 4, 4, 7), 2, false},
		{"margin one above the rounds left", tallyOf(4, 4, 4, 7), 1, true},
		{"margin one above, no round left", tallyOf(4, 7, 4), 0, true},
		{"lead by the tie rule, no round left", tallyOf(7, 4), 0, false},
		{"lead by the tie rule after a takeover", tallyOf(9, 2, 2, 9), 0, false},
		{"lone label, one round left", tallyOf(3, 3), 1, true},
		{"lone label, as many rounds left", tallyOf(3, 3), 2, false},
	} {
		if got := c.t.settled(c.roundsLeft); got != c.want {
			t.Errorf("%s: %+v settled(%d) = %v, want %v", c.name, c.t, c.roundsLeft, got, c.want)
		}
	}
	if got := tallyOf(9, 2, 2, 9); got != (tally{lead: 2, leadN: 2, nextN: 2}) {
		t.Errorf("tie after a takeover: %+v, want lead 2 over 9 at 2 each", got)
	}
}

// Property: a tally is the sorted memory's modal label, its count and
// the runner-up's; when it is settled for r rounds, no r labels stored
// after it change the modal label.
func TestTallyMatchesMemory(t *testing.T) {
	rng := xrand.New(21)
	const trials = 2000
	settled := 0
	for trial := 0; trial < trials; trial++ {
		alphabet := 1 + rng.Intn(5)
		self := int32(rng.Intn(alphabet))
		var labels []int32
		for i := rng.Intn(12); i > 0; i-- {
			labels = append(labels, int32(rng.Intn(alphabet)))
		}
		got := tallyOf(self, labels...)
		mem := append([]int32{self}, labels...)
		slices.Sort(mem)
		if lead := modal(mem); got.lead != lead {
			t.Fatalf("memory %v: tally lead %d, modal %d", mem, got.lead, lead)
		}
		leadN, nextN := 0, 0
		eachRun(mem, func(label int32, count int) {
			if label == got.lead {
				leadN = count
			} else {
				nextN = max(nextN, count)
			}
		})
		if got.leadN != int32(leadN) || got.nextN != int32(nextN) {
			t.Fatalf("memory %v: tally %+v, counts %d and %d", mem, got, leadN, nextN)
		}
		roundsLeft := rng.Intn(6)
		if !got.settled(roundsLeft) {
			continue
		}
		settled++
		// The worst the rounds left can do is store one rival every time.
		for rival := int32(0); rival <= int32(alphabet); rival++ {
			more := slices.Clone(mem)
			for i := 0; i < roundsLeft; i++ {
				more = append(more, rival)
			}
			slices.Sort(more)
			if modal(more) != got.lead {
				t.Fatalf("memory %v settled for %d rounds, but %v has modal %d", mem, roundsLeft, more, modal(more))
			}
		}
	}
	if settled < trials/10 {
		t.Fatalf("only %d of %d tallies were settled; the extensions test nothing", settled, trials)
	}
}
