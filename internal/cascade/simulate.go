package cascade

import (
	"context"
	"fmt"
	"math"
	"slices"

	"viralcast/internal/graph"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// Simulator runs the continuous-time stochastic propagation model of
// Kempe et al. adapted by the paper (§III): when node u becomes infected
// at time t_u it attempts to infect each susceptible out-neighbor v after
// an exponential delay with rate A[u]·B[v] (the minimum over K
// topic-specific exponential delays with rates A[u,k]·B[v,k]). A node
// keeps the earliest tentative infection it receives — the single-source
// property of the model. The spread is truncated at the observation
// window (paper §VI-A).
//
// With a nil graph the simulator runs in dense mode: every other node is
// a candidate target of every infection, exactly the topology the A·Bᵀ
// hazard model itself defines (zero-rate pairs simply never fire). Dense
// mode is how the scenario engine simulates campaigns against a serving
// generation, which carries embeddings but no explicit graph.
type Simulator struct {
	G      *graph.Graph // nil = dense/complete topology over the embedding rows
	A, B   *vecmath.Matrix
	Window float64 // observation window; infections after it are discarded
}

// NewSimulator validates the inputs and returns a graph-backed simulator.
func NewSimulator(g *graph.Graph, a, b *vecmath.Matrix, window float64) (*Simulator, error) {
	if g == nil {
		return nil, fmt.Errorf("cascade: nil simulator input")
	}
	s, err := NewDenseSimulator(a, b, window)
	if err != nil {
		return nil, err
	}
	if a.RowsN != g.N() {
		return nil, fmt.Errorf("cascade: embedding rows (%d, %d) != graph nodes %d", a.RowsN, b.RowsN, g.N())
	}
	s.G = g
	return s, nil
}

// NewDenseSimulator validates the inputs and returns a simulator over the
// complete topology implied by the embeddings alone: the hazard of u
// infecting any v is A[u]·B[v], with no adjacency restriction.
func NewDenseSimulator(a, b *vecmath.Matrix, window float64) (*Simulator, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("cascade: nil simulator input")
	}
	if a.RowsN != b.RowsN {
		return nil, fmt.Errorf("cascade: A has %d rows but B has %d", a.RowsN, b.RowsN)
	}
	if a.ColsN != b.ColsN {
		return nil, fmt.Errorf("cascade: A has %d topics but B has %d", a.ColsN, b.ColsN)
	}
	if window <= 0 {
		return nil, fmt.Errorf("cascade: observation window must be positive, got %v", window)
	}
	if !vecmath.AllNonneg(a.Data) || !vecmath.AllNonneg(b.Data) {
		return nil, fmt.Errorf("cascade: embeddings must be non-negative (they parameterize hazard rates)")
	}
	// NaN passes AllNonneg, and a NaN hazard infects at time NaN, which
	// neither the window check nor the heap can order.
	if !vecmath.AllFinite(a.Data) {
		return nil, fmt.Errorf("cascade: influence matrix A has a NaN or infinite entry")
	}
	if !vecmath.AllFinite(b.Data) {
		return nil, fmt.Errorf("cascade: selectivity matrix B has a NaN or infinite entry")
	}
	return &Simulator{A: a, B: b, Window: window}, nil
}

// N returns the node-universe size of the simulation.
func (s *Simulator) N() int {
	if s.G != nil {
		return s.G.N()
	}
	return s.A.RowsN
}

// TrialScratch holds the per-trial working state of one simulation: the
// tentative-event heap, the infection table, and the output infection
// slice. A zero TrialScratch is ready to use; reusing one across trials
// (each trial implicitly resets it) removes the per-trial allocations
// that dominate Monte Carlo batches. The scratch is not safe for
// concurrent use, and a cascade produced through it aliases its storage
// — valid only until the scratch's next trial.
type TrialScratch struct {
	h eventHeap
	// infectedAt[v] is v's infection time, meaningful only when
	// mark[v] == epoch. Bumping epoch resets the whole table in O(1);
	// the arrays are sized to the simulator's universe on first use.
	infectedAt []float64
	mark       []uint32
	epoch      uint32
	infected   int // count of marked nodes this trial
	infs       []Infection
	// Work done since the scratch was created, over all its trials:
	// uniforms drawn, logarithms taken, events that entered the heap.
	attempts, logs, scheduled int
}

// Counts reports the scratch's cumulative work: tentative infections
// drawn, how many of them needed the logarithm, how many were scheduled.
func (ws *TrialScratch) Counts() (attempts, logs, scheduled int) {
	return ws.attempts, ws.logs, ws.scheduled
}

// reset prepares the scratch for a fresh trial over n nodes.
func (ws *TrialScratch) reset(n int) {
	ws.h = ws.h[:0]
	ws.infs = ws.infs[:0]
	ws.infected = 0
	if len(ws.mark) < n {
		ws.mark = make([]uint32, n)
		ws.infectedAt = make([]float64, n)
		ws.epoch = 0
	}
	ws.epoch++
	if ws.epoch == 0 { // uint32 wrapped: stale marks could collide
		for i := range ws.mark {
			ws.mark[i] = 0
		}
		ws.epoch = 1
	}
}

func (ws *TrialScratch) isInfected(v int) bool { return ws.mark[v] == ws.epoch }

func (ws *TrialScratch) infect(v int, t float64) {
	ws.mark[v] = ws.epoch
	ws.infectedAt[v] = t
	ws.infected++
}

// event is a tentative infection in the simulation's priority queue.
type event struct {
	time float64
	node int
}

// eventHeap is a binary min-heap ordered by (time, node). The sift
// operations are implemented directly rather than through
// container/heap: the interface's `any` parameters box every event,
// and those boxes were the bulk of a Monte Carlo batch's allocations.
// Events with equal (time, node) keys are interchangeable — popping
// either first yields the same trajectory — so any heap with this
// ordering produces identical cascades.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].node < h[j].node
}

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	e := s[n]
	s = s[:n]
	*h = s
	h.down(0)
	return e
}

// down restores the heap property below index i.
func (h *eventHeap) down(i int) {
	s := *h
	n := len(s)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && s.less(r, l) {
			j = r
		}
		if !s.less(j, i) {
			return
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}

// init heapifies an arbitrarily-ordered slice.
func (h *eventHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Run simulates a single cascade with the given id, starting from seed at
// time 0. The cascade always contains at least the seed.
func (s *Simulator) Run(id, seed int, rng *xrand.RNG) (*Cascade, error) {
	return s.RunSeeds(id, []int{seed}, 0, rng)
}

// RunSeeds simulates one cascade seeded by the whole set at time 0 — a
// campaign: every seed starts infected simultaneously and their spreads
// compete for the same susceptible population (a node reached by two
// seeds' frontiers keeps the earliest infection, as always). Duplicate
// seeds are collapsed. maxSize > 0 stops the simulation as soon as that
// many nodes are infected — the early-stop hook for "time to size X"
// queries and for bounding trial cost; 0 means no cap. The infection
// order of the returned cascade is deterministic given the rng state.
func (s *Simulator) RunSeeds(id int, seeds []int, maxSize int, rng *xrand.RNG) (*Cascade, error) {
	c, err := s.RunSeedsScratch(new(TrialScratch), id, seeds, maxSize, rng)
	if err != nil {
		return nil, err
	}
	// The scratch is private to this call, so the aliasing view can be
	// handed out as an owned cascade; clamp capacity so appends by the
	// caller cannot write into what the scratch considered spare room.
	c.Infections = c.Infections[:len(c.Infections):len(c.Infections)]
	return &c, nil
}

// RunSeedsScratch is RunSeeds running on caller-owned working state:
// the heap, the infection table, and the output slice all live in ws
// and are reused across trials. The returned cascade aliases ws and is
// valid only until ws's next trial — callers that retain cascades must
// copy, callers that fold each trial into aggregates (the Monte Carlo
// engines) pay zero per-trial allocations. The trajectory is
// bit-identical to RunSeeds: the rng is consumed in exactly the same
// order, only the bookkeeping's storage differs.
func (s *Simulator) RunSeedsScratch(ws *TrialScratch, id int, seeds []int, maxSize int, rng *xrand.RNG) (Cascade, error) {
	n := s.N()
	if len(seeds) == 0 {
		return Cascade{}, fmt.Errorf("cascade: empty seed set")
	}
	for _, seed := range seeds {
		if seed < 0 || seed >= n {
			return Cascade{}, fmt.Errorf("cascade: seed %d out of range [0,%d)", seed, n)
		}
	}
	ws.reset(n)
	h := &ws.h
	for _, seed := range seeds {
		*h = append(*h, event{time: 0, node: seed})
	}
	h.init()
	for len(*h) > 0 {
		e := h.pop()
		if e.time > s.Window {
			break // the observation window terminates the process instantly
		}
		if ws.isInfected(e.node) {
			continue // a faster source already infected this node
		}
		ws.infect(e.node, e.time)
		ws.infs = append(ws.infs, Infection{Node: e.node, Time: e.time})
		if maxSize > 0 && ws.infected >= maxSize {
			break // early stop: the question was only ever "how fast to maxSize"
		}
		au := s.A.Row(e.node)
		if s.G != nil {
			ts, _ := s.G.Neighbors(e.node)
			for _, v := range ts {
				s.attempt(ws, au, e.time, v, rng)
			}
			continue
		}
		// Dense mode: every still-susceptible node is a candidate. The
		// rng draw happens only for positive rates, so the consumed
		// stream — and therefore the trajectory — is identical however
		// the candidate scan is reached.
		for v := 0; v < n; v++ {
			if v == e.node {
				continue
			}
			s.attempt(ws, au, e.time, v, rng)
		}
	}
	return Cascade{ID: id, Infections: ws.infs}, nil
}

// attempt schedules u→v's tentative infection if v is susceptible, the
// pair's hazard is positive and the infection lands inside the window.
// The uniform is drawn exactly as rng.Exp draws it, so the stream is the
// one a simulator that heaps every attempt would consume; an event past
// the window would only ever be popped by the loop's break, so leaving
// it out changes no cascade.
func (s *Simulator) attempt(ws *TrialScratch, au []float64, t float64, v int, rng *xrand.RNG) {
	if ws.isInfected(v) {
		return
	}
	rate := vecmath.Dot(au, s.B.Row(v))
	if rate <= 0 {
		return // zero hazard: u can never infect v
	}
	ws.attempts++
	u := rng.Float64()
	if provablyLate(t, s.Window, rate, u) {
		return
	}
	ws.logs++
	if at := t + -math.Log(1-u)/rate; at <= s.Window {
		ws.scheduled++
		ws.h.push(event{time: at, node: v})
	}
}

// provablyLate is a log-free sufficient test for t + -log(1-u)/rate >
// window. 1-u is exact and -log(1-u) >= u, so the delay is at least
// u/rate; asking u to clear rate·(window-t) by a factor 1+2⁻²⁰, and only
// while window-t > 2⁻²⁰·window, leaves 2⁻⁴¹·window of slack against the
// few roundings involved, each at most 2⁻⁵³·window. A false answer
// proves nothing: the caller evaluates the exact expression.
func provablyLate(t, window, rate, u float64) bool {
	rem := window - t
	return rem > window*0x1p-20 && u > rate*rem*(1+0x1p-20)
}

// RunMany simulates count cascades with uniformly random seeds, ids
// firstID..firstID+count-1 (paper §VI-A: "a random node is chosen as the
// initiator").
func (s *Simulator) RunMany(firstID, count int, rng *xrand.RNG) ([]*Cascade, error) {
	return s.RunManyCtx(context.Background(), firstID, count, rng)
}

// RunManyCtx is RunMany with cancellation, checked between trials: a
// fired deadline or SIGINT stops the batch at the next trial boundary
// and discards the partial work (the caller asked a question it no
// longer wants half-answered). Within-trial state never leaks, so a
// canceled batch leaves no trace.
func (s *Simulator) RunManyCtx(ctx context.Context, firstID, count int, rng *xrand.RNG) ([]*Cascade, error) {
	if count < 0 {
		return nil, fmt.Errorf("cascade: negative count %d", count)
	}
	out := make([]*Cascade, 0, count)
	ws := new(TrialScratch) // one heap and one infection table for the batch
	for i := 0; i < count; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := s.RunSeedsScratch(ws, firstID+i, []int{rng.Intn(s.N())}, 0, rng)
		if err != nil {
			return nil, err
		}
		c.Infections = slices.Clone(c.Infections) // c aliased ws
		out = append(out, &c)
	}
	return out, nil
}
