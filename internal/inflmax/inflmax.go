// Package inflmax solves the influence-maximization problem of Kempe,
// Kleinberg & Tardos (the paper's reference [11], whose propagation
// model this repository simulates) on top of the *inferred* embeddings:
// choose k seed nodes maximizing the expected number of nodes reached
// within a time horizon. It is the natural operational application of
// the fitted model — "whom should we hand the story to?" — and needs no
// network topology, only the influence/selectivity vectors.
//
// Under the embedding model, seed u reaches v within horizon T directly
// with probability p(u,v) = 1 - exp(-A[u]·B[v]·T). The expected direct
// coverage of a seed set S, with the standard independence
// approximation, is
//
//	f(S) = sum_v [ 1 - prod_{u in S} (1 - p(u,v)) ]
//
// plus the seeds themselves (a seeded node is active by definition, the
// standard IC convention). The objective is monotone and submodular, so
// lazy greedy selection (CELF) carries the classic (1 - 1/e) guarantee
// relative to the best seed set under the same objective.
//
// The O(n·K) gain evaluations dominate the cost, so GreedyOpt runs them
// in parallel: the initial marginal-gain pass is sharded across workers,
// and stale candidates popped off the CELF queue in the same round are
// re-evaluated as a batch. Both paths are deterministic — every gain is
// computed by exactly one worker with a fixed loop order, and queue ties
// break on node id — so the selected seed set is identical for any
// worker count.
package inflmax

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"viralcast/internal/embed"
	"viralcast/internal/pool"
	"viralcast/internal/vecmath"
)

// Result describes one selected seed.
type Result struct {
	Node int
	// Gain is the marginal expected coverage this seed added.
	Gain float64
	// Total is the expected coverage of the seed set up to this seed.
	Total float64
}

// Precomp holds per-generation aggregates of a model that the greedy
// selection and coverage evaluation exploit to skip dead rows. core.System
// builds it once per model generation, and only for a model with no
// negative entry: the zero-sum-means-dead shortcut is sound only under
// the model's non-negativity invariant.
type Precomp struct {
	// ASum[u] is node u's total influence mass (the sum of its A row);
	// under the model's non-negativity invariant, 0 means u cannot
	// infect anyone and its whole O(n·K) gain scan collapses to the
	// self term.
	ASum []float64
	// BSum[v] is node v's total selectivity mass; 0 means v cannot be
	// reached and is skipped as a target.
	BSum []float64
}

// matches reports whether p was built for a model of n nodes; a stale or
// foreign Precomp is ignored rather than trusted.
func (p *Precomp) matches(n int) bool {
	return p != nil && len(p.ASum) == n && len(p.BSum) == n
}

// Options tunes GreedyOpt and CoverageOpt beyond the required inputs.
// The zero value is a sensible default.
type Options struct {
	// Workers bounds how many gain evaluations run concurrently;
	// <= 0 uses runtime.GOMAXPROCS(0). The result is identical for any
	// value.
	Workers int
	// Pre supplies precomputed model aggregates (see Precomp); nil
	// (or a Precomp for a different model size) disables the dead-row
	// shortcuts but changes no result.
	Pre *Precomp
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// celfItem is a lazily evaluated candidate in the CELF queue.
type celfItem struct {
	node    int
	gain    float64
	round   int // the selection round the gain was computed in
	heapIdx int
}

// celfQueue orders candidates by gain, breaking ties on node id so the
// pop order — and therefore the selected seed set — is deterministic
// regardless of how a parallel batch refresh reordered the refreshes.
type celfQueue []*celfItem

func (q celfQueue) Len() int { return len(q) }
func (q celfQueue) Less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain
	}
	return q[i].node < q[j].node
}
func (q celfQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i]; q[i].heapIdx = i; q[j].heapIdx = j }
func (q *celfQueue) Push(x any)   { it := x.(*celfItem); it.heapIdx = len(*q); *q = append(*q, it) }
func (q *celfQueue) Pop() any     { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// Greedy selects up to k seeds with lazy greedy (CELF) under the
// direct-coverage objective at the given horizon. Candidates may
// restrict the eligible seed nodes (nil means all nodes).
func Greedy(m *embed.Model, horizon float64, k int, candidates []int) ([]Result, error) {
	return GreedyCtx(context.Background(), m, horizon, k, candidates)
}

// gainCheckStride bounds how much work runs between cancellation
// checks inside the greedy loops: one check per this many O(n·K) gain
// evaluations keeps the overhead unmeasurable while a canceled caller
// (request deadline hit, client gone) stops within a few milliseconds
// of real compute instead of finishing an O(n²·K) selection.
const gainCheckStride = 64

// GreedyCtx is Greedy with cancellation: the selection checks ctx
// between gain evaluations and returns ctx.Err() as soon as it is
// canceled, so a serving deadline bounds the CPU a request can burn.
func GreedyCtx(ctx context.Context, m *embed.Model, horizon float64, k int, candidates []int) ([]Result, error) {
	return GreedyOpt(ctx, m, horizon, k, candidates, Options{})
}

// gainEval computes marginal gains against the current notReached state.
// It is safe for concurrent calls: the state is read-only during an
// evaluation round.
type gainEval struct {
	m          *embed.Model
	horizon    float64
	n          int
	notReached []float64
	asum       []float64 // nil disables the dead-source shortcut
	bsum       []float64 // nil disables the dead-target shortcut
}

// gain evaluates seeding u against the frozen notReached state: u's own
// residual mass converts to coverage, plus direct-reach mass over every
// still-unreached target.
func (e *gainEval) gain(u int) float64 {
	g := e.notReached[u]
	if e.asum != nil && e.asum[u] == 0 {
		return g // u has no influence mass: it reaches only itself
	}
	// Hoist every field into a local: the Dot call below is not inlined,
	// so field loads through e would otherwise be re-issued each
	// iteration of this O(n)-trip loop.
	au := e.m.A.Row(u)
	nr, bsum, horizon := e.notReached, e.bsum, e.horizon
	bdata, kdim := e.m.B.Data, e.m.B.ColsN
	if bsum == nil {
		for v, off := 0, 0; v < e.n; v, off = v+1, off+kdim {
			if v == u {
				continue
			}
			rate := vecmath.Dot(au, bdata[off:off+kdim])
			if rate <= 0 {
				continue
			}
			g += nr[v] * (1 - math.Exp(-rate*horizon))
		}
		return g
	}
	for v, off := 0, 0; v < e.n; v, off = v+1, off+kdim {
		if v == u || bsum[v] == 0 { // bsum==0: v is unreachable under the model
			continue
		}
		rate := vecmath.Dot(au, bdata[off:off+kdim])
		if rate <= 0 {
			continue
		}
		g += nr[v] * (1 - math.Exp(-rate*horizon))
	}
	return g
}

// fold absorbs a newly chosen seed into notReached (the seed itself
// becomes fully active).
func (e *gainEval) fold(u int) {
	e.notReached[u] = 0
	if e.asum != nil && e.asum[u] == 0 {
		return
	}
	au := e.m.A.Row(u)
	nr, bsum, horizon := e.notReached, e.bsum, e.horizon
	bdata, kdim := e.m.B.Data, e.m.B.ColsN
	for v, off := 0, 0; v < e.n; v, off = v+1, off+kdim {
		if v == u || (bsum != nil && bsum[v] == 0) {
			continue
		}
		rate := vecmath.Dot(au, bdata[off:off+kdim])
		if rate <= 0 {
			continue
		}
		nr[v] *= math.Exp(-rate * horizon)
	}
}

// GreedyOpt is GreedyCtx with explicit parallelism and precomputation
// options. The initial marginal-gain pass shards the candidate set
// across workers; afterwards, every stale candidate popped in the same
// CELF round is re-evaluated as one parallel batch. Gains are pure
// functions of the frozen per-round state, so the selection is
// bit-identical to the sequential algorithm for every worker count.
func GreedyOpt(ctx context.Context, m *embed.Model, horizon float64, k int, candidates []int, opt Options) ([]Result, error) {
	if m == nil {
		return nil, fmt.Errorf("inflmax: nil model")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("inflmax: horizon must be positive, got %v", horizon)
	}
	n := m.N()
	if k < 1 {
		return nil, fmt.Errorf("inflmax: k must be >= 1, got %d", k)
	}
	if candidates == nil {
		candidates = make([]int, n)
		for i := range candidates {
			candidates[i] = i
		}
	}
	for _, u := range candidates {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("inflmax: candidate %d out of range [0,%d)", u, n)
		}
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	// notReached[v] = prod over chosen seeds (1 - p(u,v)); coverage is
	// sum(1 - notReached).
	notReached := make([]float64, n)
	for i := range notReached {
		notReached[i] = 1
	}
	eval := &gainEval{m: m, horizon: horizon, n: n, notReached: notReached}
	if opt.Pre.matches(n) {
		eval.asum, eval.bsum = opt.Pre.ASum, opt.Pre.BSum
	}
	workers := opt.workers()

	// Initial marginal-gain pass: every candidate against the empty seed
	// set, sharded across workers. Each worker owns one contiguous shard
	// and checks cancellation every gainCheckStride evaluations.
	gains := make([]float64, len(candidates))
	if workers <= 1 || len(candidates) < 2 {
		for i, u := range candidates {
			if i%gainCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			gains[i] = eval.gain(u)
		}
	} else {
		shards := workers
		if shards > len(candidates) {
			shards = len(candidates)
		}
		err := pool.RunCtx(ctx, workers, shards, func(s int) error {
			lo := s * len(candidates) / shards
			hi := (s + 1) * len(candidates) / shards
			for i := lo; i < hi; i++ {
				if (i-lo)%gainCheckStride == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				gains[i] = eval.gain(candidates[i])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	q := make(celfQueue, 0, len(candidates))
	for i, u := range candidates {
		q = append(q, &celfItem{node: u, gain: gains[i], round: 0})
	}
	heap.Init(&q)

	var out []Result
	total := 0.0
	chosen := make(map[int]bool, k)
	stale := make([]*celfItem, 0, workers)
	for len(out) < k && q.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Pop stale candidates off the top into a batch, up to one per
		// worker, stopping at the first fresh item. Submodularity makes
		// every stale gain an upper bound, so anything below a fresh top
		// can stay stale untouched.
		stale = stale[:0]
		for q.Len() > 0 && len(stale) < workers {
			top := q[0]
			if chosen[top.node] {
				heap.Pop(&q) // duplicate candidate id, already selected
				continue
			}
			if top.round == len(out) {
				break
			}
			heap.Pop(&q)
			stale = append(stale, top)
		}
		if len(stale) > 0 {
			// Lazy re-evaluation, batched: all batch gains are computed
			// against the same frozen notReached, exactly the values a
			// sequential CELF would find one heap.Fix at a time.
			round := len(out)
			if len(stale) == 1 || workers <= 1 {
				for _, it := range stale {
					it.gain = eval.gain(it.node)
					it.round = round
				}
			} else {
				err := pool.RunCtx(ctx, workers, len(stale), func(i int) error {
					stale[i].gain = eval.gain(stale[i].node)
					stale[i].round = round
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
			for _, it := range stale {
				heap.Push(&q, it)
			}
			continue
		}
		if q.Len() == 0 {
			break
		}
		top := heap.Pop(&q).(*celfItem)
		chosen[top.node] = true
		total += top.gain
		out = append(out, Result{Node: top.node, Gain: top.gain, Total: total})
		eval.fold(top.node)
	}
	return out, nil
}

// Coverage evaluates the direct-coverage objective f(S) for an explicit
// seed set (useful for comparing seed sets chosen by other heuristics).
func Coverage(m *embed.Model, horizon float64, seeds []int) (float64, error) {
	return CoverageOpt(m, horizon, seeds, Options{})
}

// CoverageOpt is Coverage with the dead-row shortcuts from a Precomp.
// Seeds are deduplicated and evaluated in sorted order, so the float
// accumulation — and therefore the result — is deterministic.
func CoverageOpt(m *embed.Model, horizon float64, seeds []int, opt Options) (float64, error) {
	if m == nil {
		return 0, fmt.Errorf("inflmax: nil model")
	}
	if horizon <= 0 {
		return 0, fmt.Errorf("inflmax: horizon must be positive, got %v", horizon)
	}
	n := m.N()
	inSet := make(map[int]bool, len(seeds))
	uniq := make([]int, 0, len(seeds))
	for _, u := range seeds {
		if u < 0 || u >= n {
			return 0, fmt.Errorf("inflmax: seed %d out of range [0,%d)", u, n)
		}
		if !inSet[u] {
			inSet[u] = true
			uniq = append(uniq, u)
		}
	}
	sort.Ints(uniq)
	var asum, bsum []float64
	if opt.Pre.matches(n) {
		asum, bsum = opt.Pre.ASum, opt.Pre.BSum
	}
	total := float64(len(uniq)) // seeds are active by definition
	for v := 0; v < n; v++ {
		if inSet[v] {
			continue
		}
		if bsum != nil && bsum[v] == 0 {
			continue // unreachable target: contributes nothing
		}
		notReached := 1.0
		bv := m.B.Row(v)
		for _, u := range uniq {
			if asum != nil && asum[u] == 0 {
				continue
			}
			rate := vecmath.Dot(m.A.Row(u), bv)
			if rate > 0 {
				notReached *= math.Exp(-rate * horizon)
			}
		}
		total += 1 - notReached
	}
	return total, nil
}
