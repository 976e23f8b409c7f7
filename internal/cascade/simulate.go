package cascade

import (
	"context"
	"fmt"
	"math"

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
//
// The fields are read-only once a constructor has returned: a graph-mode
// simulator tabulates every arc's hazard from G, A and B at construction,
// so writing any of them afterwards would desynchronise the two. A
// Simulator is safe for concurrent use by trials on separate scratches.
type Simulator struct {
	G      *graph.Graph // nil = dense/complete topology over the embedding rows
	A, B   *vecmath.Matrix
	Window float64 // observation window; infections after it are discarded

	// Graph mode's hazards: arcs[arcOff[u]:arcOff[u+1]] are u's
	// out-neighbors v with A[u]·B[v] > 0, in the graph's order, each with
	// that rate. A zero-rate arc never draws a uniform, so it is left out.
	arcOff []int
	arcs   []arc
}

// arc is one positive-hazard edge u→v of a graph-mode simulator.
type arc struct {
	to   int
	rate float64
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
	s.arcOff = make([]int, g.N()+1)
	s.arcs = make([]arc, 0, g.M())
	for u := range g.N() {
		au := a.Row(u)
		ts, _ := g.Neighbors(u)
		for _, v := range ts {
			if rate := vecmath.Dot(au, b.Row(v)); rate > 0 {
				s.arcs = append(s.arcs, arc{to: v, rate: rate})
			}
		}
		s.arcOff[u+1] = len(s.arcs)
	}
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
// tentative-event heap, each node's earliest time, and the output
// infection slice. A zero TrialScratch is ready to use; reusing one
// across trials (each trial implicitly resets it) removes the per-trial
// allocations that dominate Monte Carlo batches. The scratch is not safe
// for concurrent use, and a cascade produced through it aliases its
// storage — valid only until the scratch's next trial.
type TrialScratch struct {
	h eventHeap
	// first[v] is the earliest time v has been reached this trial: its
	// earliest pending tentative infection while mark[v] == epoch, its
	// infection time once mark[v] == epoch+1; any other mark means v is
	// untouched. epoch is even and steps by two, so bumping it resets the
	// whole table in O(1); the arrays are sized to the universe on first
	// use.
	first []float64
	mark  []uint32
	epoch uint32
	infs  []Infection // this trial's infections in order; len is the count
	// Work done since the scratch was created, over all its trials:
	// uniforms drawn, logarithms taken, events that entered the heap.
	attempts, logs, scheduled int
}

// Counts reports the scratch's cumulative work: tentative infections
// drawn (one uniform each), how many of them needed the logarithm, and
// how many were scheduled — landed inside the window and earlier than
// every tentative infection already pending for their target.
func (ws *TrialScratch) Counts() (attempts, logs, scheduled int) {
	return ws.attempts, ws.logs, ws.scheduled
}

// reset prepares the scratch for a fresh trial over n nodes.
func (ws *TrialScratch) reset(n int) {
	ws.h = ws.h[:0]
	ws.infs = ws.infs[:0]
	if len(ws.mark) < n {
		ws.mark = make([]uint32, n)
		ws.first = make([]float64, n)
		ws.epoch = 0
	}
	ws.epoch += 2
	if ws.epoch == 0 { // uint32 wrapped: stale marks could collide
		clear(ws.mark)
		ws.epoch = 2
	}
}

func (ws *TrialScratch) isInfected(v int) bool { return ws.mark[v] == ws.epoch+1 }

func (ws *TrialScratch) infect(v int, t float64) {
	ws.mark[v] = ws.epoch + 1
	ws.first[v] = t
}

// schedule heaps v's tentative infection at time t, now its earliest.
func (ws *TrialScratch) schedule(v int, t float64) {
	ws.mark[v] = ws.epoch
	ws.first[v] = t
	ws.h.push(event{time: t, node: v})
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
// the heap, the per-node times, and the output slice all live in ws and
// are reused across trials. The returned cascade aliases ws and is
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
	for _, seed := range seeds {
		if ws.mark[seed] != ws.epoch {
			ws.schedule(seed, 0)
		}
	}
	h := &ws.h
	for len(*h) > 0 {
		// Every heaped event lies inside the window, so only the heap
		// running dry or the size cap ends a trial.
		e := h.pop()
		if ws.isInfected(e.node) {
			continue // a faster source already infected this node
		}
		ws.infect(e.node, e.time)
		ws.infs = append(ws.infs, Infection{Node: e.node, Time: e.time})
		if maxSize > 0 && len(ws.infs) >= maxSize {
			break // early stop: the question was only ever "how fast to maxSize"
		}
		if s.G != nil {
			for _, a := range s.arcs[s.arcOff[e.node]:s.arcOff[e.node+1]] {
				s.attempt(ws, e.time, a.to, a.rate, rng)
			}
			continue
		}
		// Dense mode: every still-susceptible node is a candidate. The
		// rng draw happens only for positive rates, so the consumed
		// stream — and therefore the trajectory — is identical however
		// the candidate scan is reached.
		au := s.A.Row(e.node)
		for v := 0; v < n; v++ {
			if v == e.node || ws.isInfected(v) {
				continue
			}
			if rate := vecmath.Dot(au, s.B.Row(v)); rate > 0 {
				s.attempt(ws, e.time, v, rate, rng)
			}
		}
	}
	return Cascade{ID: id, Infections: ws.infs}, nil
}

// attempt draws the tentative infection of v, at positive rate, by a
// node infected at time t, and schedules it only if it lands inside the
// window and before every tentative infection of v already pending. The
// uniform is drawn exactly as rng.Exp draws it, so the stream is the one
// a simulator that heaps every attempt would consume. Nothing left out
// could change a cascade: an event past the window would only ever be
// popped by a loop stopped at the window, and one at or after v's
// pending time would be popped once v is infected — the shortest-path
// view of a continuous-time cascade, where, as in Dijkstra's algorithm,
// only an improving tentative time needs to enter the queue.
func (s *Simulator) attempt(ws *TrialScratch, t float64, v int, rate float64, rng *xrand.RNG) {
	bound, pending := s.Window, false
	switch ws.mark[v] {
	case ws.epoch + 1:
		return // already infected
	case ws.epoch:
		bound, pending = ws.first[v], true
	}
	ws.attempts++
	u := rng.Float64()
	if provablyLate(t, bound, rate, u) {
		return
	}
	ws.logs++
	at := t + -math.Log(1-u)/rate
	if at > bound || pending && at == bound {
		return
	}
	ws.scheduled++
	ws.schedule(v, at)
}

// provablyLate is a log-free sufficient test for t + -log(1-u)/rate >
// bound, where t <= bound is the attempt's start and bound the window or
// an earlier pending time. 1-u is exact and -log(1-u) >= u, so the delay
// is at least u/rate; asking u to clear rate·(bound-t) by a factor
// 1+2⁻²⁰, and only while bound-t > 2⁻²⁰·bound, leaves 2⁻⁴¹·bound of
// slack against the few roundings involved, each at most 2⁻⁵³·bound. A
// false answer proves nothing: the caller evaluates the exact expression.
func provablyLate(t, bound, rate, u float64) bool {
	rem := bound - t
	return rem > bound*0x1p-20 && u > rate*rem*(1+0x1p-20)
}

// arenaBlock caps the infections one block of RunManyCtx's arena holds
// (256 KiB).
const arenaBlock = 1 << 14

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
	// The batch's cascades are carved from an arena of blocks, each
	// cascade's capacity clamped so an append through it cannot reach the
	// next. A block is never regrown, so nothing carved moves; each new
	// one holds at least everything carved so far, up to arenaBlock
	// infections, so a batch takes few blocks and wastes little of them.
	cs := make([]Cascade, count)
	out := make([]*Cascade, count)
	var block []Infection
	carved := 0
	ws := new(TrialScratch) // one heap and one table of times for the batch
	for i := range cs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := s.RunSeedsScratch(ws, firstID+i, []int{rng.Intn(s.N())}, 0, rng)
		if err != nil {
			return nil, err
		}
		k := len(c.Infections)
		if cap(block)-len(block) < k {
			block = make([]Infection, 0, max(k, min(carved, arenaBlock)))
		}
		block = append(block, c.Infections...) // c aliased ws
		cs[i] = Cascade{ID: c.ID, Infections: block[len(block)-k : len(block) : len(block)]}
		out[i] = &cs[i]
		carved += k
	}
	return out, nil
}
