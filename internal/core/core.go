// Package core ties the paper's pieces into one end-to-end system: fit
// topic-specific influence/selectivity embeddings from observed cascades
// with the community-parallel hierarchical algorithm, then predict the
// virality of new cascades from their early adopters. The root-level
// viralcast package re-exports this API for library consumers; the
// pieces (simulator, inference, clustering, metrics) remain individually
// usable through their own packages.
package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"viralcast/internal/cascade"
	"viralcast/internal/cooccur"
	"viralcast/internal/embed"
	"viralcast/internal/eval"
	"viralcast/internal/features"
	"viralcast/internal/infer"
	"viralcast/internal/inflmax"
	"viralcast/internal/pool"
	"viralcast/internal/slpa"
	"viralcast/internal/svm"
	"viralcast/internal/xrand"
)

// TrainConfig bundles every knob of the end-to-end training pipeline.
// The zero value is completed by sensible defaults.
type TrainConfig struct {
	// Topics is the latent dimension K of the embeddings.
	Topics int
	// MaxIter bounds EM epochs per hierarchy level (and the refit's in
	// Update).
	MaxIter int
	// Workers bounds how many communities are optimized concurrently.
	Workers int
	// Q stops the community hierarchy when at most Q communities remain;
	// Q <= 1 ends with a full sequential polish.
	Q int
	// Seed makes the whole pipeline deterministic.
	Seed uint64
	// CheckpointPath, when set, persists training snapshots to this file
	// (atomically: write-temp-then-rename) so an interrupted run can be
	// continued with Resume. A final checkpoint is also written when the
	// training context is canceled mid-fit. A snapshot is taken at every
	// hierarchy level boundary.
	CheckpointPath string
	// Resume warm-starts training from the snapshot at CheckpointPath if
	// the file exists; a missing file starts from scratch. The cascades,
	// configuration, and seed must match the interrupted run.
	Resume bool
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Topics <= 0 {
		c.Topics = 4
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 30
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Q < 1 {
		c.Q = 1
	}
	return c
}

// System is a fitted instance of the paper's framework.
type System struct {
	N          int
	Embeddings *embed.Model
	Partition  *slpa.Partition
	Trace      *infer.Trace
	cfg        TrainConfig

	// agg caches per-generation aggregates derived from the embeddings
	// (row influence sums, per-node top topic, selectivity masses).
	// It is built lazily on first use, shared by every compute path of
	// this generation, and dropped whenever the embeddings mutate
	// (Update); Fork starts the copy with an empty cache. Reads and the
	// idempotent rebuild are lock-free.
	agg atomic.Pointer[systemAgg]
}

// systemAgg is one generation's precomputed view of the embeddings: the
// per-node quantities every influencer ranking re-derived O(n·K)-style
// on each request before this cache existed. Influencer rankings read
// it directly; seed selection and coverage evaluation reuse the same
// arrays as inflmax dead-row shortcuts.
type systemAgg struct {
	rowSum    []float64 // per-node total influence mass (sum of A's row)
	topTopic  []int     // per-node argmax topic of the A row
	topWeight []float64 // the argmax component's value
	selSum    []float64 // per-node total selectivity mass (sum of B's row)
	pre       *inflmax.Precomp
}

// aggChunk is how many node rows one aggregate-builder task owns; small
// enough to spread across cores, large enough to amortize scheduling.
const aggChunk = 8192

// aggregates returns the generation's precomputed view, building it on
// first use. Concurrent first callers may build duplicates; the build is
// deterministic and idempotent, so whichever Store lands last is
// indistinguishable from the rest.
func (s *System) aggregates() *systemAgg {
	if a := s.agg.Load(); a != nil {
		return a
	}
	a := buildAggregates(s.Embeddings)
	s.agg.Store(a)
	return a
}

// invalidateAggregates drops the cached view; the next compute path
// rebuilds against the mutated embeddings.
func (s *System) invalidateAggregates() { s.agg.Store(nil) }

// buildAggregates scans the embeddings once, sharded across cores. Each
// task owns a contiguous node range, so every output cell has exactly
// one writer and the result is identical for any worker count.
func buildAggregates(m *embed.Model) *systemAgg {
	n := m.N()
	a := &systemAgg{
		rowSum:    make([]float64, n),
		topTopic:  make([]int, n),
		topWeight: make([]float64, n),
		selSum:    make([]float64, n),
	}
	nonneg := make([]bool, (n+aggChunk-1)/aggChunk)
	tasks := len(nonneg)
	workers := runtime.GOMAXPROCS(0)
	pool.Run(workers, tasks, func(t int) error { //nolint:errcheck // tasks cannot fail
		lo, hi := t*aggChunk, (t+1)*aggChunk
		if hi > n {
			hi = n
		}
		ok := true
		for u := lo; u < hi; u++ {
			var sum, best float64
			bestK := 0
			for ki, v := range m.A.Row(u) {
				sum += v
				if v > best {
					best, bestK = v, ki
				}
				if v < 0 {
					ok = false
				}
			}
			a.rowSum[u], a.topTopic[u], a.topWeight[u] = sum, bestK, best
			var bs float64
			for _, v := range m.B.Row(u) {
				bs += v
				if v < 0 {
					ok = false
				}
			}
			a.selSum[u] = bs
		}
		nonneg[t] = ok
		return nil
	})
	// The inflmax dead-row shortcut (zero mass ⇒ zero rates) is only
	// sound for non-negative embeddings — the model invariant, but a
	// hand-built model can violate it, so the shortcut is gated.
	allOK := true
	for _, ok := range nonneg {
		allOK = allOK && ok
	}
	if allOK {
		a.pre = &inflmax.Precomp{ASum: a.rowSum, BSum: a.selSum}
	}
	return a
}

// Train fits the system on observed cascades over n nodes: the frequent
// co-occurrence graph (§IV-B), its SLPA communities, then the
// hierarchical community-parallel EM fit (Algorithms 1 and 2).
func Train(cs []*cascade.Cascade, n int, cfg TrainConfig) (*System, error) {
	return TrainCtx(context.Background(), cs, n, cfg)
}

// TrainCtx is Train with cancellation and fault tolerance. Canceling ctx
// stops the fit at the next consistency boundary and — if
// cfg.CheckpointPath is set — leaves a durable snapshot behind before
// returning the context's error, so a SIGINT-style shutdown loses no
// more than the level in flight. Rerunning with cfg.Resume continues
// from that snapshot.
func TrainCtx(ctx context.Context, cs []*cascade.Cascade, n int, cfg TrainConfig) (*System, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		return nil, fmt.Errorf("core: n must be positive, got %d", n)
	}
	if len(cs) == 0 {
		return nil, fmt.Errorf("core: no training cascades")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The co-occurrence graph (§IV-B) and its SLPA communities are
	// deterministic in the seed and cheap next to the EM fit, so they are
	// recomputed rather than checkpointed: a resume given the same
	// cascades, configuration and seed rebuilds the interrupted run's
	// partition.
	g, err := cooccur.Build(cs, n, cooccur.Options{})
	if err != nil {
		return nil, err
	}
	part := slpa.Detect(g, slpa.Options{}, xrand.New(cfg.Seed^0x5eed))
	m, tr, err := infer.HierarchicalCtx(ctx, cs, n, part,
		infer.Config{K: cfg.Topics, MaxIter: cfg.MaxIter, Seed: cfg.Seed},
		infer.ParallelOptions{Workers: cfg.Workers, Q: cfg.Q},
		infer.Resilience{Path: cfg.CheckpointPath, Resume: cfg.Resume})
	if err != nil {
		return nil, err
	}
	return &System{N: n, Embeddings: m, Partition: part, Trace: tr, cfg: cfg}, nil
}

// Update refits the embeddings to cs by the fit's closed-form EM,
// warm-started from the current embeddings — the online regime for
// tracking breaking news. cs is every cascade the model should explain,
// the corpus it was fitted on together with the newly observed ones,
// not a delta: nothing else anchors the refit (infer.Refine). Predictors
// trained before an Update keep their old embeddings' view; retrain them
// to pick up the refit.
func (s *System) Update(cs []*cascade.Cascade) error {
	if len(cs) == 0 {
		return fmt.Errorf("core: no cascades to update with")
	}
	// The refit mutates the embeddings in place, so the cached
	// aggregates are stale either way once it has started.
	defer s.invalidateAggregates()
	_, err := infer.Refine(s.Embeddings, cs, infer.Config{
		K: s.cfg.Topics, MaxIter: s.cfg.MaxIter, Seed: s.cfg.Seed,
	})
	return err
}

// SaveEmbeddings writes the fitted model in the library's versioned
// format: a magic + checksum envelope around the CSV body, so loaders
// can tell a genuine embeddings file from a foreign or truncated one.
func (s *System) SaveEmbeddings(w io.Writer) error {
	return s.Embeddings.WriteSigned(w)
}

// LoadSystem rebuilds a System from saved embeddings, verifying the
// envelope checksum when present (files from before the envelope existed
// — bare CSV starting with "node,kind" — still load). The community
// partition is not persisted (it is a training-time artifact); the
// loaded system supports every inference-time operation — influencers,
// features, predictors, updates.
func LoadSystem(r io.Reader, cfg TrainConfig) (*System, error) {
	cfg = cfg.withDefaults()
	m, err := embed.ReadSigned(r)
	if err != nil {
		return nil, err
	}
	if cfg.Topics != m.K() {
		cfg.Topics = m.K()
	}
	return &System{N: m.N(), Embeddings: m, cfg: cfg}, nil
}

// NewSystem wraps an already-decoded embedding model as a servable
// System — the entry point for callers that obtain a model from a
// source other than SaveEmbeddings, such as a training checkpoint.
func NewSystem(m *embed.Model, cfg TrainConfig) *System {
	cfg = cfg.withDefaults()
	cfg.Topics = m.K()
	return &System{N: m.N(), Embeddings: m, cfg: cfg}
}

// Fork deep-copies the system's mutable state (the embeddings), so the
// copy can be refined with Update while the original keeps serving reads
// concurrently — the swap-under-load pattern a serving daemon needs.
// The training-time artifacts (partition, trace) are shared read-only.
func (s *System) Fork() *System {
	return &System{
		N:          s.N,
		Embeddings: s.Embeddings.Clone(),
		Partition:  s.Partition,
		Trace:      s.Trace,
		cfg:        s.cfg,
	}
}

// Rate returns the inferred hazard rate of u infecting v.
func (s *System) Rate(u, v int) float64 { return s.Embeddings.Rate(u, v) }

// Influencer is one node ranked by total influence mass.
type Influencer struct {
	Node      int
	Score     float64 // sum of the influence vector
	TopTopic  int     // topic with the largest influence component
	TopWeight float64 // that component's value
}

// TopInfluencers ranks nodes by total inferred influence — the paper's
// "identification of the significant influencers" application.
func (s *System) TopInfluencers(k int) []Influencer {
	out, _ := s.TopInfluencersCtx(context.Background(), k)
	return out
}

// influencerCheckStride is how many node rows the influencer scan
// processes between cancellation checks.
const influencerCheckStride = 1024

// TopInfluencersCtx is TopInfluencers with cancellation, for serving
// paths that must honor a request deadline. The ranking reads the
// generation's precomputed per-node aggregates (no O(n·K) row scan on
// the request path), keeps a bounded k-element min-heap per worker
// instead of materializing and fully sorting all n entries, and shards
// the node range across GOMAXPROCS workers; each worker checks ctx per
// stride and abandons the ranking with ctx.Err() once canceled.
func (s *System) TopInfluencersCtx(ctx context.Context, k int) ([]Influencer, error) {
	return s.topInfluencersRange(ctx, k, 0, 0, s.N)
}

// TopInfluencersRangeCtx ranks only the nodes in [lo, hi) — the stripe
// a sharded daemon owns when a routing front-end partitions the node
// universe across processes. The stripe-local top-k is exact, so
// merging every shard's stripe ranking with MergeTopInfluencers
// recovers the single-node global ranking byte for byte (the same
// lemma the per-worker heaps inside one process rely on, lifted to
// processes). Bounds are clamped to [0, N); an empty range ranks
// nothing.
func (s *System) TopInfluencersRangeCtx(ctx context.Context, k, lo, hi int) ([]Influencer, error) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.N {
		hi = s.N
	}
	if hi < lo {
		hi = lo
	}
	return s.topInfluencersRange(ctx, k, 0, lo, hi)
}

// MergeTopInfluencers merges per-partition candidate rankings into the
// global top-k under the published order (score descending, node id
// ascending on ties). Provided each input list is the exact top-k of a
// partition of the node universe and the partitions are disjoint, the
// result is identical to ranking the union directly: any node in the
// global top-k is, a fortiori, in the top-k of its own partition, so
// the union of partition winners contains every global winner. This is
// the merge of TopInfluencersCtx's per-worker heaps, exported so a
// scatter-gathering router can merge per-shard heaps the same way one
// process merges per-worker heaps. k < 0 keeps every candidate. The
// result has cap == len: whoever caches it holds the k winners, not the
// candidates they beat.
func MergeTopInfluencers(k int, lists ...[]Influencer) []Influencer {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	merged := make([]Influencer, 0, total)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool { return rankBelow(merged[j], merged[i]) })
	if k >= 0 && k < len(merged) {
		merged = append(make([]Influencer, 0, k), merged[:k]...)
	}
	return merged
}

// rankBelow is the inverse of the published influencer order: a ranks
// strictly below b when its score is lower, ties broken toward the
// larger node id. It is the heap order (weakest kept candidate at the
// root) and the complement of the final sort.
func rankBelow(a, b Influencer) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

// topInfluencersRange is the parallel heap-based selection over the
// node range [rlo, rhi); workers <= 0 uses GOMAXPROCS. Every worker
// owns a contiguous node stripe of the range and its stripe-local
// top-k is exact, so the merged result is identical for any worker
// count.
func (s *System) topInfluencersRange(ctx context.Context, k, workers, rlo, rhi int) ([]Influencer, error) {
	span := rhi - rlo
	if k > span {
		k = span
	}
	if k <= 0 {
		return []Influencer{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Below this many rows per worker the stripe bookkeeping costs more
	// than it parallelizes away.
	const minStripe = 4096
	if max := (span + minStripe - 1) / minStripe; workers > max {
		workers = max
	}
	agg := s.aggregates()
	heaps := make([][]Influencer, workers)
	err := pool.RunCtx(ctx, workers, workers, func(w int) error {
		lo := rlo + w*span/workers
		hi := rlo + (w+1)*span/workers
		h := make([]Influencer, 0, k)
		for u := lo; u < hi; u++ {
			if (u-lo)%influencerCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			cand := Influencer{
				Node: u, Score: agg.rowSum[u],
				TopTopic: agg.topTopic[u], TopWeight: agg.topWeight[u],
			}
			if len(h) < k {
				h = append(h, cand)
				siftUpInfluencer(h, len(h)-1)
			} else if rankBelow(h[0], cand) {
				h[0] = cand
				siftDownInfluencer(h, 0)
			}
		}
		heaps[w] = h
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Merge: at most workers*k exact stripe winners; a full sort of this
	// small set recovers the range's global order.
	return MergeTopInfluencers(k, heaps...), nil
}

// siftUpInfluencer and siftDownInfluencer maintain a slice min-heap
// under rankBelow (root = weakest kept candidate) without the
// interface boxing of container/heap — this is the per-row hot path.
func siftUpInfluencer(h []Influencer, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !rankBelow(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDownInfluencer(h []Influencer, i int) {
	n := len(h)
	for {
		least := i
		if l := 2*i + 1; l < n && rankBelow(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && rankBelow(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Seed describes one node chosen by SelectSeeds with its marginal and
// cumulative expected coverage.
type Seed = inflmax.Result

// SelectSeeds chooses up to k nodes that maximize the expected number of
// nodes reached within the horizon under the fitted embeddings (lazy
// greedy with the (1-1/e) guarantee) — the influence-maximization
// application of Kempe et al., run on inferred rather than known
// parameters.
func (s *System) SelectSeeds(k int, horizon float64) ([]Seed, error) {
	return s.SelectSeedsCtx(context.Background(), k, horizon)
}

// SelectSeedsCtx is SelectSeeds with cancellation threaded into the
// greedy loop, so a serving request deadline (or a disconnected client)
// stops the O(n²·K) selection instead of burning CPU to completion. The
// gain evaluations run in parallel (sharded initial pass, batched lazy
// re-evaluations) against the generation's precomputed aggregates; the
// selected set is identical for any worker count.
func (s *System) SelectSeedsCtx(ctx context.Context, k int, horizon float64) ([]Seed, error) {
	return inflmax.GreedyOpt(ctx, s.Embeddings, horizon, k, nil,
		inflmax.Options{Pre: s.aggregates().pre})
}

// ExpectedCoverage evaluates the same objective for an explicit seed set.
func (s *System) ExpectedCoverage(seeds []int, horizon float64) (float64, error) {
	return inflmax.CoverageOpt(s.Embeddings, horizon, seeds,
		inflmax.Options{Pre: s.aggregates().pre})
}

// Features extracts the early-adopter features of a (possibly partial)
// cascade under the fitted embeddings.
func (s *System) Features(early *cascade.Cascade) (features.Set, error) {
	return features.Extract(s.Embeddings, early)
}

// Predictor is a trained virality classifier on top of a fitted System.
type Predictor struct {
	system    *System
	std       *svm.Standardizer
	model     *svm.Model
	threshold int
	early     float64
	names     []string

	// scratch recycles per-prediction buffers (selected feature row and
	// its standardized form) so the serving predict path allocates only
	// what must outlive the request.
	scratch sync.Pool
}

// predictScratch is one prediction's reusable workspace.
type predictScratch struct {
	row []float64
	std []float64
}

// DefaultEarlyCutoff is the early-adopter cutoff used when none is given:
// the paper's 2/7 of the latest infection time in cs.
func DefaultEarlyCutoff(cs []*cascade.Cascade) float64 {
	var maxT float64
	for _, c := range cs {
		if n := len(c.Infections); n > 0 && c.Infections[n-1].Time > maxT {
			maxT = c.Infections[n-1].Time
		}
	}
	return maxT * 2 / 7
}

// TrainPredictor fits the paper's linear-SVM virality classifier:
// cascades whose final size reaches sizeThreshold are the positive
// class; earlyCutoff bounds the visible early-adopter prefix.
func (s *System) TrainPredictor(cs []*cascade.Cascade, earlyCutoff float64, sizeThreshold int) (*Predictor, error) {
	if earlyCutoff <= 0 {
		return nil, fmt.Errorf("core: earlyCutoff must be positive, got %v", earlyCutoff)
	}
	sets, sizes, err := features.ExtractAll(s.Embeddings, cs, earlyCutoff)
	if err != nil {
		return nil, err
	}
	if len(sets) < 10 {
		return nil, fmt.Errorf("core: only %d usable cascades for predictor training", len(sets))
	}
	names := []string{"diverA", "normA", "maxA"}
	x := make([][]float64, len(sets))
	for i, fs := range sets {
		row, err := fs.Select(names)
		if err != nil {
			return nil, err
		}
		x[i] = row
	}
	y := eval.LabelsBySizeThreshold(sizes, sizeThreshold)
	pos := 0
	for _, l := range y {
		if l == 1 {
			pos++
		}
	}
	if pos == 0 || pos == len(y) {
		return nil, fmt.Errorf("core: threshold %d yields a single-class training set", sizeThreshold)
	}
	std, model, err := svm.Fit(x, y, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Predictor{
		system: s, std: std, model: model,
		threshold: sizeThreshold, early: earlyCutoff, names: names,
	}, nil
}

// Threshold returns the size threshold the predictor was trained for.
func (p *Predictor) Threshold() int { return p.threshold }

// EarlyCutoff returns the early-adopter time cutoff the predictor reads
// cascades up to.
func (p *Predictor) EarlyCutoff() float64 { return p.early }

// PredictViral reports whether the cascade's early prefix (everything up
// to the predictor's early cutoff) signals a final size at or above the
// training threshold, along with the classifier margin.
func (p *Predictor) PredictViral(c *cascade.Cascade) (bool, float64, error) {
	early := c.Prefix(p.early)
	if early.Size() == 0 {
		return false, 0, fmt.Errorf("core: cascade %d has no infections before the early cutoff %v", c.ID, p.early)
	}
	fs, err := p.system.Features(early)
	if err != nil {
		return false, 0, err
	}
	ws, _ := p.scratch.Get().(*predictScratch)
	if ws == nil {
		ws = &predictScratch{}
	}
	row, err := fs.SelectAppend(ws.row[:0], p.names)
	if err != nil {
		return false, 0, err
	}
	ws.row = row
	ws.std = p.std.ApplyRow(ws.std[:0], row)
	margin := p.model.Decision(ws.std)
	p.scratch.Put(ws)
	return margin >= 0, margin, nil
}

// Evaluate scores the predictor on labeled cascades and returns the
// confusion matrix.
func (p *Predictor) Evaluate(cs []*cascade.Cascade) (eval.Confusion, error) {
	var truth, pred []int
	for _, c := range cs {
		viral, _, err := p.PredictViral(c)
		if err != nil {
			continue // cascades starting after the cutoff are unusable
		}
		if c.Size() >= p.threshold {
			truth = append(truth, 1)
		} else {
			truth = append(truth, -1)
		}
		if viral {
			pred = append(pred, 1)
		} else {
			pred = append(pred, -1)
		}
	}
	if len(truth) == 0 {
		return eval.Confusion{}, fmt.Errorf("core: no evaluable cascades")
	}
	return eval.Confuse(truth, pred)
}
