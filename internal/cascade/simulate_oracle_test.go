package cascade

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"viralcast/internal/graph"
	"viralcast/internal/sbm"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// oracleAttempt is the simulator's attempt as it stood before events past
// the window stopped being scheduled: every susceptible positive-rate
// pair takes rng.Exp and a heap push, and the pop loop's window check is
// the only thing that ever discards an event.
func oracleAttempt(s *Simulator, ws *TrialScratch, au []float64, t float64, v int, rng *xrand.RNG) {
	if ws.isInfected(v) {
		return
	}
	rate := vecmath.Dot(au, s.B.Row(v))
	if rate <= 0 {
		return
	}
	ws.h.push(event{time: t + rng.Exp(rate), node: v})
}

// init heapifies an arbitrarily-ordered slice: the oracle heaps its
// seeds at once, where the simulator schedules them one by one.
func (h *eventHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// oracleRunSeeds is RunSeedsScratch's loop around oracleAttempt, on fresh
// state; seeds are assumed valid.
func oracleRunSeeds(s *Simulator, id int, seeds []int, maxSize int, rng *xrand.RNG) Cascade {
	n := s.N()
	ws := new(TrialScratch)
	ws.reset(n)
	h := &ws.h
	for _, seed := range seeds {
		*h = append(*h, event{time: 0, node: seed})
	}
	h.init()
	for len(*h) > 0 {
		e := h.pop()
		if e.time > s.Window {
			break
		}
		if ws.isInfected(e.node) {
			continue
		}
		ws.infect(e.node, e.time)
		ws.infs = append(ws.infs, Infection{Node: e.node, Time: e.time})
		if maxSize > 0 && len(ws.infs) >= maxSize {
			break
		}
		au := s.A.Row(e.node)
		if s.G != nil {
			ts, _ := s.G.Neighbors(e.node)
			for _, v := range ts {
				oracleAttempt(s, ws, au, e.time, v, rng)
			}
			continue
		}
		for v := 0; v < n; v++ {
			if v != e.node {
				oracleAttempt(s, ws, au, e.time, v, rng)
			}
		}
	}
	return Cascade{ID: id, Infections: ws.infs}
}

// sameCascade requires the same nodes in the same order and the same
// bits in every time.
func sameCascade(t *testing.T, label string, got, want Cascade) {
	t.Helper()
	if got.ID != want.ID || len(got.Infections) != len(want.Infections) {
		t.Fatalf("%s: id %d with %d infections, oracle id %d with %d",
			label, got.ID, len(got.Infections), want.ID, len(want.Infections))
	}
	for i, w := range want.Infections {
		g := got.Infections[i]
		if g.Node != w.Node || math.Float64bits(g.Time) != math.Float64bits(w.Time) {
			t.Fatalf("%s infection %d: (%d, %x), oracle (%d, %x)",
				label, i, g.Node, math.Float64bits(g.Time), w.Node, math.Float64bits(w.Time))
		}
	}
}

// oracleWorld draws a random directed graph and random embeddings whose
// rates straddle every window the oracle test uses; a few rows of A are
// all zero (nodes that can be infected but never infect).
func oracleWorld(t *testing.T, seed uint64) (*graph.Graph, *vecmath.Matrix, *vecmath.Matrix) {
	t.Helper()
	rng := xrand.New(seed)
	n, k := 30, 3
	var edges []graph.Edge
	for e := 0; e < 5*n; e++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			edges = append(edges, graph.Edge{From: u, To: v, Weight: 1})
		}
	}
	a, b := vecmath.NewMatrix(n, k), vecmath.NewMatrix(n, k)
	for i := range a.Data {
		a.Data[i] = 2 * rng.Float64()
		b.Data[i] = rng.Float64()
	}
	for _, u := range []int{4, 11, 23} {
		for j := 0; j < k; j++ {
			a.Set(u, j, 0)
		}
	}
	return mustGraph(t, n, edges), a, b
}

// sbmWorld draws §VI-A's setting at n = 150: an SBM graph of 40-node
// blocks and a planted truth in the manner of workload.Build's (a topic
// per block, Pareto influence capped at 400, rates sized to window 8).
// Its super-spreaders reach the same node along several arcs, so at
// window 8 nodes collect competing tentative infections.
func sbmWorld(t *testing.T, seed uint64) (*graph.Graph, *vecmath.Matrix, *vecmath.Matrix) {
	t.Helper()
	rng := xrand.New(seed)
	g, membership, err := sbm.Generate(sbm.Params{N: 150, BlockSize: 40, Alpha: 0.2, Beta: 0.001}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	base := math.Sqrt(0.1 / 8 * 2.5)
	a, b := vecmath.NewMatrix(g.N(), k), vecmath.NewMatrix(g.N(), k)
	for u, block := range membership {
		a.Set(u, block%k, base*min(rng.Pareto(1, 1.1), 400)*(0.7+0.6*rng.Float64()))
		b.Set(u, block%k, base*(0.7+0.6*rng.Float64()))
	}
	return g, a, b
}

// bothSims returns the graph-mode and the dense-mode simulator of one
// world, in that order.
func bothSims(t *testing.T, g *graph.Graph, a, b *vecmath.Matrix, window float64) [2]*Simulator {
	t.Helper()
	graphSim, err := NewSimulator(g, a, b, window)
	if err != nil {
		t.Fatal(err)
	}
	denseSim, err := NewDenseSimulator(a, b, window)
	if err != nil {
		t.Fatal(err)
	}
	return [2]*Simulator{graphSim, denseSim}
}

// TestSimulatorMatchesOracle: leaving events past the window or behind a
// pending time out of the heap, reading hazards from the arc table, and
// proving most late attempts late without a logarithm, changes no
// cascade and no random draw. Graph and dense mode, reused scratch,
// windows from "nothing fits" to "everything does", early-stop caps,
// duplicate and multi-node seed sets — and after every trial the RNG
// must stand exactly where the oracle's does. The SBM world is where
// graph mode's pending times do the pruning: the test requires some of
// its nodes to have been heaped more than once, each time earlier.
func TestSimulatorMatchesOracle(t *testing.T) {
	seedSets := [][]int{{0}, {4}, {7, 7, 7}, {3, 19, 3, 28}, {11, 23}, {29, 0, 15, 8, 1}}
	for _, world := range []struct {
		name    string
		draw    func(*testing.T, uint64) (*graph.Graph, *vecmath.Matrix, *vecmath.Matrix)
		windows []float64
		compete bool // graph mode must reschedule some node
	}{
		{"random", func(t *testing.T, _ uint64) (*graph.Graph, *vecmath.Matrix, *vecmath.Matrix) {
			return oracleWorld(t, 99)
		},
			[]float64{1e-9, 0.5, 8, 1e6, math.Inf(1)}, false},
		{"sbm", sbmWorld, []float64{8}, true},
	} {
		g, a, b := world.draw(t, 7)
		n := a.RowsN
		for _, window := range world.windows {
			for i, sim := range bothSims(t, g, a, b, window) {
				mode := [2]string{"graph", "dense"}[i]
				ws := new(TrialScratch)
				rescheduled := 0
				for seed := uint64(1); seed <= 200; seed++ {
					seeds := seedSets[seed%uint64(len(seedSets))]
					if seed%5 == 0 {
						seeds = []int{int(seed) % n}
					}
					maxSize := 0
					if seed%4 == 0 {
						maxSize = 1 + int(seed/4)%12
					}
					gotRNG, wantRNG := xrand.New(seed), xrand.New(seed)
					want := oracleRunSeeds(sim, int(seed), seeds, maxSize, wantRNG)
					_, _, before := ws.Counts()
					got, err := sim.RunSeedsScratch(ws, int(seed), seeds, maxSize, gotRNG)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s world, %s window %g seed %d", world.name, mode, window, seed)
					sameCascade(t, label, got, want)
					if *gotRNG != *wantRNG {
						t.Fatalf("%s: the RNG consumed a different stream than the oracle's", label)
					}
					if maxSize == 0 { // the heap drained: every event was popped
						_, _, after := ws.Counts()
						sorted := slices.Clone(seeds)
						slices.Sort(sorted)
						distinct := len(slices.Compact(sorted))
						rescheduled += after - before - (len(got.Infections) - distinct)
					}
				}
				if world.compete && mode == "graph" && rescheduled == 0 {
					t.Errorf("%s world, graph window %g: no node was heaped twice, so no pending time was ever beaten", world.name, window)
				}
				t.Logf("%s world, %s window %g: %d events superseded by an earlier one", world.name, mode, window, rescheduled)
			}
		}
	}
}

// TestArcTableMatchesDot: graph mode's hazard table holds, for every arc
// of the graph in the graph's order, exactly vecmath.Dot(A[u], B[v]) bit
// for bit, and leaves out exactly the arcs whose hazard is zero.
func TestArcTableMatchesDot(t *testing.T) {
	g, a, b := oracleWorld(t, 99)
	// Disjoint topics give a zero hazard between two non-zero rows.
	for j := 0; j < a.ColsN; j++ {
		b.Set(6, j, 0)
	}
	b.Set(9, 0, 0.5)
	b.Set(9, 1, 0)
	b.Set(9, 2, 0)
	a.Set(2, 0, 0)
	sim, err := NewSimulator(g, a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.arcOff) != g.N()+1 || sim.arcOff[0] != 0 || sim.arcOff[g.N()] != len(sim.arcs) {
		t.Fatalf("arc offsets %d long, from %d to %d over %d arcs", len(sim.arcOff), sim.arcOff[0], sim.arcOff[len(sim.arcOff)-1], len(sim.arcs))
	}
	dropped := 0
	for u := 0; u < g.N(); u++ {
		row := sim.arcs[sim.arcOff[u]:sim.arcOff[u+1]]
		ts, _ := g.Neighbors(u)
		for _, v := range ts {
			rate := vecmath.Dot(a.Row(u), b.Row(v))
			if rate == 0 {
				dropped++
				continue
			}
			if len(row) == 0 || row[0].to != v || math.Float64bits(row[0].rate) != math.Float64bits(rate) {
				t.Fatalf("arc %d→%d: table %v, want rate %x", u, v, row, math.Float64bits(rate))
			}
			row = row[1:]
		}
		if len(row) != 0 {
			t.Fatalf("node %d: table holds %v past its graph arcs", u, row)
		}
	}
	if dropped == 0 || dropped+len(sim.arcs) != g.M() {
		t.Fatalf("%d zero-hazard arcs dropped, %d kept, graph has %d", dropped, len(sim.arcs), g.M())
	}
	dense, err := NewDenseSimulator(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dense.arcOff != nil || dense.arcs != nil {
		t.Fatal("a dense simulator built an arc table")
	}
}

// TestHeapHoldsNothingPastWindow stops trials at every size a cascade
// passes through, so the heap is inspected mid-flight rather than only
// once it has drained: whatever it holds could still happen.
func TestHeapHoldsNothingPastWindow(t *testing.T) {
	g, a, b := oracleWorld(t, 5)
	const window = 0.5
	ws := new(TrialScratch)
	held := 0
	for _, sim := range bothSims(t, g, a, b, window) {
		for seed := uint64(1); seed <= 40; seed++ {
			for maxSize := 1; maxSize <= 8; maxSize++ {
				if _, err := sim.RunSeedsScratch(ws, 0, []int{int(seed) % a.RowsN}, maxSize, xrand.New(seed)); err != nil {
					t.Fatal(err)
				}
				held += len(ws.h)
				for _, e := range ws.h {
					if !(e.time <= window) {
						t.Fatalf("seed %d cap %d: heap holds node %d at %v, past the window %v", seed, maxSize, e.node, e.time, window)
					}
				}
			}
		}
	}
	if held == 0 {
		t.Fatal("no capped trial left an event in the heap: the invariant was never exercised")
	}
	attempts, logs, scheduled := ws.Counts()
	if !(scheduled <= logs && logs <= attempts) || scheduled == attempts {
		t.Fatalf("counters out of order: %d attempts, %d logarithms, %d scheduled", attempts, logs, scheduled)
	}
}

// TestRunManyEqualsRunLoop: the batch runs on one scratch and copies
// each cascade out, which must be invisible — the same cascades as a
// loop of Run on the same stream, each owning its infections.
func TestRunManyEqualsRunLoop(t *testing.T) {
	g, a, b := oracleWorld(t, 17)
	for _, sim := range bothSims(t, g, a, b, 0.5) {
		const count = 60
		got, err := sim.RunMany(100, count, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(3)
		want := make([]*Cascade, count)
		for i := range want {
			if want[i], err = sim.Run(100+i, rng.Intn(sim.N()), rng); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("RunMany differs from a loop of Run on the same stream")
		}
		// Scribble over one cascade at a time, through its length and
		// through whatever capacity it has: no other cascade may notice.
		for i, c := range got {
			inf := c.Infections[:cap(c.Infections)]
			for j := range inf {
				inf[j] = Infection{Node: -1, Time: -1}
			}
			for j := range got {
				if j != i && !reflect.DeepEqual(got[j].Infections, want[j].Infections) {
					t.Fatalf("writing cascade %d changed cascade %d: they share storage", i, j)
				}
			}
			copy(c.Infections, want[i].Infections)
		}
	}
}

// TestSimulatorRejectsNonFinite: NaN is not < 0, so it used to pass the
// non-negativity check, give a NaN hazard that is not <= 0 either, and
// infect nodes at time NaN.
func TestSimulatorRejectsNonFinite(t *testing.T) {
	g := lineGraph(t, 4)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, inB := range []bool{false, true} {
			a, b := constMatrix(4, 2, 1), constMatrix(4, 2, 1)
			name := "A"
			if inB {
				b.Set(2, 1, bad)
				name = "B"
			} else {
				a.Set(2, 1, bad)
			}
			_, denseErr := NewDenseSimulator(a, b, 10)
			_, graphErr := NewSimulator(g, a, b, 10)
			for _, err := range []error{denseErr, graphErr} {
				if err == nil {
					t.Fatalf("%v in %s accepted", bad, name)
				}
				if want := "matrix " + name; !strings.Contains(err.Error(), want) {
					t.Errorf("%v in %s: error %q does not name %q", bad, name, err, want)
				}
			}
		}
	}
}

// FuzzPruneDecision: whenever the log-free test says an attempt lands
// past its bound — the window, or a pending time of the target below it
// — the exact expression, the one that decides every attempt the test
// cannot settle, must say so too. u is snapped to the generator's
// lattice (multiples of 2⁻⁵³ in [0, 1)), which is where "1-u is exact"
// comes from.
func FuzzPruneDecision(f *testing.F) {
	ulp := func(x float64, up bool) float64 {
		if up {
			return math.Nextafter(x, math.Inf(1))
		}
		return math.Nextafter(x, math.Inf(-1))
	}
	// The window seeds, then pending times below a window of 8: ones an
	// attempt computed (3.7 + -log(1-0.3)/0.4 and so on), one just past
	// t, and the bounds where the relative margin turns on.
	pend := func(t, u, rate float64) float64 { return t + -math.Log(1-u)/rate }
	for _, s := range []struct{ t, bound, rate float64 }{
		{0, 8, 0.01}, {3.7, 8, 0.4}, {7.999, 8, 2}, {0, 1e-9, 1e3}, {0.25, 0.5, 1.9},
		{0, 1e6, 1e-7}, {5e5, 1e6, 3e-7}, {0, math.Inf(1), 1},
		{8 - 8*0x1p-20, 8, 100}, {ulp(8-8*0x1p-20, false), 8, 100}, {ulp(8-8*0x1p-20, true), 8, 100},
		{8, 8, 1}, {0, 8, 5e-324}, {1, 8, 1e-310}, {0, 8, 1e300}, {0, 1e-300, 1e300}, {0, 1e300, 1e-300},
		{3.7, pend(3.7, 0.3, 0.4), 0.4}, {4.1, pend(3.7, 0.3, 0.4), 2.5}, {0.25, pend(0, 0x1p-40, 1.9), 1.9},
		{2, ulp(2, true), 1}, {2, 2, 3}, {2, 2 / (1 - 0x1p-20), 7}, {2, ulp(2/(1-0x1p-20), true), 7},
		{1e-12, pend(0, 0.5, 1e9), 1e9}, {6.5, pend(6, 0.999, 0.05), 1e-3},
	} {
		edge := s.rate * (s.bound - s.t)
		for _, u := range []float64{0, 0x1p-53, 0.5, 1 - 0x1p-53, edge, ulp(edge, false), ulp(edge, true),
			edge * (1 + 0x1p-20), ulp(edge*(1+0x1p-20), true), ulp(edge*(1+0x1p-20), false)} {
			f.Add(s.t, s.bound, s.rate, u)
		}
	}
	f.Fuzz(func(t *testing.T, at, bound, rate, u float64) {
		u = math.Floor(u*0x1p53) * 0x1p-53
		if !(bound >= 0 && at >= 0 && at <= bound && rate > 0 && u >= 0 && u < 1) {
			t.Skip() // outside what attempt can be called with
		}
		if provablyLate(at, bound, rate, u) && !(at+-math.Log(1-u)/rate > bound) {
			t.Fatalf("t=%v bound=%v rate=%v u=%v: called late without a logarithm, but lands at %v",
				at, bound, rate, u, at+-math.Log(1-u)/rate)
		}
	})
}
