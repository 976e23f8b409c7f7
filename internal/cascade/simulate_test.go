package cascade

import (
	"fmt"
	"math"
	"testing"

	"viralcast/internal/graph"
	"viralcast/internal/sbm"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// lineGraph builds 0 -> 1 -> 2 -> ... -> n-1.
func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{From: i, To: i + 1, Weight: 1})
	}
	return mustGraph(t, n, edges)
}

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func constMatrix(rows, cols int, v float64) *vecmath.Matrix {
	m := vecmath.NewMatrix(rows, cols)
	m.FillConst(v)
	return m
}

func TestNewSimulatorValidation(t *testing.T) {
	g := lineGraph(t, 3)
	a, b := constMatrix(3, 2, 1), constMatrix(3, 2, 1)
	if _, err := NewSimulator(g, a, b, 10); err != nil {
		t.Fatalf("valid simulator rejected: %v", err)
	}
	cases := []struct {
		name string
		fn   func() (*Simulator, error)
	}{
		{"nil graph", func() (*Simulator, error) { return NewSimulator(nil, a, b, 10) }},
		{"rows mismatch", func() (*Simulator, error) { return NewSimulator(g, constMatrix(2, 2, 1), b, 10) }},
		{"topic mismatch", func() (*Simulator, error) { return NewSimulator(g, constMatrix(3, 3, 1), b, 10) }},
		{"bad window", func() (*Simulator, error) { return NewSimulator(g, a, b, 0) }},
	}
	for _, c := range cases {
		if _, err := c.fn(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	neg := constMatrix(3, 2, 1)
	neg.Set(0, 0, -1)
	if _, err := NewSimulator(g, neg, b, 10); err == nil {
		t.Error("negative embedding accepted")
	}
}

func TestRunSeedAlwaysInfected(t *testing.T) {
	g := lineGraph(t, 5)
	s, err := NewSimulator(g, constMatrix(5, 2, 0), constMatrix(5, 2, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Run(0, 2, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 1 || c.Infections[0].Node != 2 || c.Infections[0].Time != 0 {
		t.Fatalf("zero-rate cascade = %+v", c.Infections)
	}
}

func TestRunSeedRange(t *testing.T) {
	g := lineGraph(t, 3)
	s, _ := NewSimulator(g, constMatrix(3, 1, 1), constMatrix(3, 1, 1), 1)
	if _, err := s.Run(0, 3, xrand.New(1)); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := s.Run(0, -1, xrand.New(1)); err == nil {
		t.Error("negative seed accepted")
	}
}

func TestRunProducesValidOrderedCascade(t *testing.T) {
	p := sbm.Params{N: 120, BlockSize: 30, Alpha: 0.3, Beta: 0.01}
	g, _, err := sbm.Generate(p, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := constMatrix(120, 3, 0.5), constMatrix(120, 3, 0.5)
	s, _ := NewSimulator(g, a, b, 2)
	rng := xrand.New(3)
	for i := 0; i < 50; i++ {
		c, err := s.Run(i, rng.Intn(120), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateAll([]*Cascade{c}, 120); err != nil {
			t.Fatalf("simulator produced invalid cascade: %v", err)
		}
	}
}

func TestObservationWindowRespected(t *testing.T) {
	g := lineGraph(t, 100)
	// Rate 1 per hop: expect ~window hops within the window.
	s, _ := NewSimulator(g, constMatrix(100, 1, 1), constMatrix(100, 1, 1), 5)
	rng := xrand.New(4)
	for i := 0; i < 200; i++ {
		c, _ := s.Run(i, 0, rng)
		for _, inf := range c.Infections {
			if inf.Time > 5 {
				t.Fatalf("infection at %v beyond window 5", inf.Time)
			}
		}
	}
}

func TestLineGraphDelayDistribution(t *testing.T) {
	// On the line graph with rate lambda, the first hop delay is
	// Exp(lambda); its sample mean must be ~1/lambda.
	lambda := 2.0
	g := lineGraph(t, 2)
	a := constMatrix(2, 1, lambda)
	b := constMatrix(2, 1, 1)
	s, _ := NewSimulator(g, a, b, 1e9)
	rng := xrand.New(5)
	const n = 50000
	var sum float64
	reached := 0
	for i := 0; i < n; i++ {
		c, _ := s.Run(i, 0, rng)
		if c.Size() == 2 {
			sum += c.Infections[1].Time
			reached++
		}
	}
	if reached != n {
		t.Fatalf("with infinite window all runs must reach node 1; got %d/%d", reached, n)
	}
	mean := sum / float64(reached)
	if math.Abs(mean-1/lambda) > 0.02 {
		t.Errorf("hop delay mean %v, want %v", mean, 1/lambda)
	}
}

func TestEarliestSourceWins(t *testing.T) {
	// Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. Node 3's infection time must
	// equal the min over both paths; it must be infected exactly once.
	var edges []graph.Edge
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		edges = append(edges, graph.Edge{From: e[0], To: e[1], Weight: 1})
	}
	g := mustGraph(t, 4, edges)
	s, _ := NewSimulator(g, constMatrix(4, 1, 1), constMatrix(4, 1, 1), 1e9)
	rng := xrand.New(6)
	for i := 0; i < 500; i++ {
		c, _ := s.Run(i, 0, rng)
		if err := ValidateAll([]*Cascade{c}, 4); err != nil {
			t.Fatal(err)
		}
		if c.Size() != 4 {
			t.Fatalf("diamond with infinite window must fully infect, size=%d", c.Size())
		}
		var t1, t2, t3 float64
		for _, inf := range c.Infections {
			switch inf.Node {
			case 1:
				t1 = inf.Time
			case 2:
				t2 = inf.Time
			case 3:
				t3 = inf.Time
			}
		}
		if t3 <= t1 && t3 <= t2 {
			t.Fatalf("node 3 infected at %v before both parents (%v, %v)", t3, t1, t2)
		}
	}
}

func TestHigherRateSpreadsFurther(t *testing.T) {
	p := sbm.Params{N: 200, BlockSize: 40, Alpha: 0.25, Beta: 0.005}
	g, _, err := sbm.Generate(p, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	run := func(rate float64, seed uint64) float64 {
		a, b := constMatrix(200, 2, rate), constMatrix(200, 2, rate)
		s, _ := NewSimulator(g, a, b, 3)
		cs, err := s.RunMany(0, 100, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return MeanSize(cs)
	}
	slow := run(0.05, 8)
	fast := run(0.5, 8)
	if fast <= slow {
		t.Errorf("higher rate should spread further: fast=%v slow=%v", fast, slow)
	}
}

func TestRunManyDeterministic(t *testing.T) {
	g := lineGraph(t, 10)
	s, _ := NewSimulator(g, constMatrix(10, 1, 1), constMatrix(10, 1, 1), 4)
	cs1, _ := s.RunMany(0, 20, xrand.New(9))
	cs2, _ := s.RunMany(0, 20, xrand.New(9))
	for i := range cs1 {
		if cs1[i].Size() != cs2[i].Size() {
			t.Fatalf("same seed, cascade %d sizes differ", i)
		}
		for j := range cs1[i].Infections {
			if cs1[i].Infections[j] != cs2[i].Infections[j] {
				t.Fatalf("same seed, cascade %d infection %d differs", i, j)
			}
		}
	}
	if _, err := s.RunMany(0, -1, xrand.New(1)); err == nil {
		t.Error("negative count accepted")
	}
}

// BenchmarkSimulatorRun times one trial on a reused scratch, on the SBM
// graph and on the dense topology of the same embeddings, and reports
// where the work went: uniforms drawn, logarithms taken and events
// heaped per trial. window=5 on the graph is the row earlier runs of
// this benchmark recorded.
func BenchmarkSimulatorRun(b *testing.B) {
	p := sbm.Params{N: 1000, BlockSize: 40, Alpha: 0.2, Beta: 0.001}
	g, _, err := sbm.Generate(p, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	a, bm := constMatrix(1000, 4, 0.15), constMatrix(1000, 4, 0.15)
	for _, row := range []struct {
		mode   string
		window float64
	}{{"graph", 5}, {"graph", 1}, {"graph", 8}, {"dense", 1}, {"dense", 8}} {
		b.Run(fmt.Sprintf("%s/window=%g", row.mode, row.window), func(b *testing.B) {
			s, err := NewDenseSimulator(a, bm, row.window)
			if row.mode == "graph" {
				s, err = NewSimulator(g, a, bm, row.window)
			}
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.New(2)
			ws := new(TrialScratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.RunSeedsScratch(ws, i, []int{rng.Intn(1000)}, 0, rng); err != nil {
					b.Fatal(err)
				}
			}
			attempts, logs, scheduled := ws.Counts()
			b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
			b.ReportMetric(float64(logs)/float64(b.N), "logs/op")
			b.ReportMetric(float64(scheduled)/float64(b.N), "scheduled/op")
		})
	}
}

// TestRunSeedsScratchBitIdentical: a trial run on a reused scratch must
// be bit-identical to the same trial on fresh allocations — same
// infection order, same nodes, same float64 bits on every time — in
// both dense and graph mode, across scratch reuse, early-stop caps, and
// multi-seed campaigns. This is the contract that lets the scenario
// engine pool trial buffers without perturbing cached results.
func TestRunSeedsScratchBitIdentical(t *testing.T) {
	rng := xrand.New(7)
	n, k := 40, 3
	a, bm := vecmath.NewMatrix(n, k), vecmath.NewMatrix(n, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	for i := range bm.Data {
		bm.Data[i] = rng.Float64()
	}
	g := lineGraph(t, n)
	dense, err := NewDenseSimulator(a, bm, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSimulator(g, a, bm, 1.5)
	if err != nil {
		t.Fatal(err)
	}

	ws := new(TrialScratch) // deliberately reused across every case below
	for trial := 0; trial < 40; trial++ {
		sim := dense
		if trial%2 == 1 {
			sim = sparse
		}
		seeds := []int{trial % n, (trial * 7) % n}
		maxSize := 0
		if trial%3 == 0 {
			maxSize = 5
		}
		seed := uint64(trial + 1)
		want, err := sim.RunSeeds(trial, seeds, maxSize, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunSeedsScratch(ws, trial, seeds, maxSize, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || len(got.Infections) != len(want.Infections) {
			t.Fatalf("trial %d: scratch run %d infections vs %d fresh", trial, len(got.Infections), len(want.Infections))
		}
		for i := range want.Infections {
			w, g := want.Infections[i], got.Infections[i]
			if w.Node != g.Node || math.Float64bits(w.Time) != math.Float64bits(g.Time) {
				t.Fatalf("trial %d infection %d: scratch (%d, %x) != fresh (%d, %x)",
					trial, i, g.Node, math.Float64bits(g.Time), w.Node, math.Float64bits(w.Time))
			}
		}
	}

	// Error paths must not poison the scratch for the next trial.
	if _, err := dense.RunSeedsScratch(ws, 0, nil, 0, xrand.New(1)); err == nil {
		t.Fatal("empty seed set accepted")
	}
	if _, err := dense.RunSeedsScratch(ws, 0, []int{n}, 0, xrand.New(1)); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	want, _ := dense.RunSeeds(9, []int{3}, 0, xrand.New(9))
	got, err := dense.RunSeedsScratch(ws, 9, []int{3}, 0, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Infections) != len(want.Infections) {
		t.Fatalf("post-error trial diverged: %d vs %d infections", len(got.Infections), len(want.Infections))
	}
}
