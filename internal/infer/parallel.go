package infer

import (
	"context"
	"fmt"
	"math"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/checkpoint"
	"viralcast/internal/embed"
	"viralcast/internal/mergetree"
	"viralcast/internal/pool"
	"viralcast/internal/slpa"
	"viralcast/internal/xrand"
)

// ParallelOptions configures the community-based parallel algorithm.
type ParallelOptions struct {
	// Workers bounds the number of communities optimized concurrently —
	// the experiment's "#cores" knob. <= 0 means 1.
	Workers int
	// Q is Algorithm 2's termination threshold: levels are processed until
	// the partition has at most Q communities. Q <= 1 means the final
	// level is the single root community (a full sequential polish pass).
	Q int
	// Policy selects the merge-tree pairing rule.
	Policy mergetree.Policy
}

func (o ParallelOptions) withDefaults() ParallelOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Q < 1 {
		o.Q = 1
	}
	return o
}

// communityTask is the unit of parallel work: one community's nodes and
// its sub-cascades remapped to community-local ids.
type communityTask struct {
	nodes   []int // global node ids, index = local id
	localCs []*cascade.Cascade
}

// levelTasks is Algorithm 1 lines 1-11 — every cascade divided into
// per-community sub-cascades that keep their absolute infection times —
// and the community-local renumbering in one step: task r holds
// community r's sub-cascades (in cascade order, sub-cascades with fewer
// than two infections dropped) with every node replaced by its index in
// p.Communities[r], so each worker runs on a compact local model instead
// of scattering over the full matrices.
//
// A counting pass sizes one backing array each for the level's
// infections, cascade headers and header pointers; a second pass fills
// them. Communities partition the n nodes, so one dense node → local id
// table serves every community. The number of allocations does not
// depend on the number of cascades.
func levelTasks(cs []*cascade.Cascade, p *slpa.Partition, n int) []communityTask {
	nc := p.NumCommunities()
	local := make([]int32, n)
	for _, nodes := range p.Communities {
		for li, u := range nodes {
			local[u] = int32(li)
		}
	}
	// size[r] counts the current cascade's infections in community r and
	// is zero between cascades; touched lists the communities it reached.
	size := make([]int32, nc)
	touched := make([]int, 0, nc)
	measure := func(c *cascade.Cascade) {
		touched = touched[:0]
		for _, inf := range c.Infections {
			r := p.Membership[inf.Node]
			if size[r] == 0 {
				touched = append(touched, r)
			}
			size[r]++
		}
	}
	// After the counting pass subAt[r] and infAt[r] are where community
	// r's headers and infections start in the backing arrays.
	subAt := make([]int, nc+1)
	infAt := make([]int, nc+1)
	for _, c := range cs {
		measure(c)
		for _, r := range touched {
			if size[r] >= 2 {
				subAt[r+1]++
				infAt[r+1] += int(size[r])
			}
			size[r] = 0
		}
	}
	for r := 0; r < nc; r++ {
		subAt[r+1] += subAt[r]
		infAt[r+1] += infAt[r]
	}
	infs := make([]cascade.Infection, infAt[nc])
	heads := make([]cascade.Cascade, subAt[nc])
	ptrs := make([]*cascade.Cascade, subAt[nc])
	tasks := make([]communityTask, nc)
	for r := range tasks {
		tasks[r] = communityTask{nodes: p.Communities[r], localCs: ptrs[subAt[r]:subAt[r+1]:subAt[r+1]]}
	}
	// subAt and infAt now advance as each community's region fills.
	for _, c := range cs {
		measure(c)
		for _, inf := range c.Infections {
			if r := p.Membership[inf.Node]; size[r] >= 2 {
				infs[infAt[r]] = cascade.Infection{Node: int(local[inf.Node]), Time: inf.Time}
				infAt[r]++
			}
		}
		for _, r := range touched {
			if sz := int(size[r]); sz >= 2 {
				heads[subAt[r]] = cascade.Cascade{ID: c.ID, Infections: infs[infAt[r]-sz : infAt[r] : infAt[r]]}
				ptrs[subAt[r]] = &heads[subAt[r]]
				subAt[r]++
			}
			size[r] = 0
		}
	}
	return tasks
}

// runLevel executes Algorithm 1 on one level: every community is
// optimized independently (its rows of A and B are disjoint from every
// other community's, so no synchronization beyond the final barrier is
// needed), with at most workers communities in flight at once. The model
// is updated in place. Once ctx is done no new community tasks are
// scheduled, the communities already in flight stop at their next epoch
// boundary, and ctx.Err() is returned after the barrier. cfg is
// defaulted and validated and workers >= 1, as HierarchicalCtx leaves
// them. It returns the work of every community that had any, in
// community order: the infections in its sub-cascades times the E-step
// sweeps its fit ran (LevelStats.TaskWork).
func runLevel(ctx context.Context, m *embed.Model, cs []*cascade.Cascade, p *slpa.Partition, cfg Config, workers int) ([]int, error) {
	if err := p.Validate(m.N()); err != nil {
		return nil, err
	}
	tasks := levelTasks(cs, p, m.N())
	// Drop workless communities before dispatch so the pool's bound
	// applies to real tasks only.
	active := tasks[:0]
	for r := range tasks {
		if len(tasks[r].localCs) > 0 {
			active = append(active, tasks[r])
		}
	}
	work := make([]int, len(active))
	// pool.RunCtx's completion is Algorithm 1's barrier; communities touch
	// disjoint rows of A and B, so the tasks need no other coordination.
	err := pool.RunCtx(ctx, workers, len(active), func(i int) error {
		sweeps, err := optimizeCommunity(ctx, m, &active[i], cfg)
		for _, c := range active[i].localCs {
			work[i] += sweeps * c.Size()
		}
		return err
	})
	return work, err
}

// optimizeCommunity copies the community's rows into a compact local
// model, runs closed-form EM (emCtx) on the community's sub-cascades,
// and copies the rows back. Reads and writes touch only
// this community's rows, which no other worker owns. On a divergence
// error the community's rows are left at their warm-start values; on
// cancellation the epochs accepted so far are kept — every accepted
// epoch is a consistent state — and the context error is returned.
// It returns the E-step sweeps the fit ran.
func optimizeCommunity(ctx context.Context, m *embed.Model, task *communityTask, cfg Config) (int, error) {
	k := m.K()
	local := embed.NewModel(len(task.nodes), k)
	for li, u := range task.nodes {
		copy(local.A.Row(li), m.A.Row(u))
		copy(local.B.Row(li), m.B.Row(u))
	}
	fit, err := emCtx(ctx, local, task.localCs, cfg)
	if err != nil && !canceled(err) {
		return fit.sweeps, err
	}
	for li, u := range task.nodes {
		copy(m.A.Row(u), local.A.Row(li))
		copy(m.B.Row(u), local.B.Row(li))
	}
	return fit.sweeps, err
}

// Hierarchical executes Algorithm 2: starting from the base partition
// (typically SLPA communities of the co-occurrence graph), it runs
// Algorithm 1 at every level of the merge tree, joining communities
// pairwise between levels and warm-starting each level with the previous
// level's embeddings.
func Hierarchical(cs []*cascade.Cascade, n int, base *slpa.Partition, cfg Config, opts ParallelOptions) (*embed.Model, *Trace, error) {
	return HierarchicalCtx(context.Background(), cs, n, base, cfg, opts, Resilience{})
}

// HierarchicalCtx is Hierarchical with cancellation and resilience, the
// one fit that has them. With res.Path set, a checkpoint is saved at
// every level boundary — the only points where the full model is a
// globally consistent state of Algorithm 2. A cancellation mid-level
// saves a final checkpoint of the last level boundary, so resuming with
// res.Resume re-runs the interrupted level from its exact warm start and
// the completed run is bit-identical to an uninterrupted one (community
// updates are deterministic and order-independent).
func HierarchicalCtx(ctx context.Context, cs []*cascade.Cascade, n int, base *slpa.Partition, cfg Config, opts ParallelOptions, res Resilience) (*embed.Model, *Trace, error) {
	cfg = cfg.WithDefaults()
	opts = opts.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("infer: n must be positive, got %d", n)
	}
	if err := cascade.ValidateAll(cs, n); err != nil {
		return nil, nil, err
	}
	if err := base.Validate(n); err != nil {
		return nil, nil, err
	}
	levels, err := mergetree.Levels(base, opts.Q, opts.Policy)
	if err != nil {
		return nil, nil, err
	}
	resume, err := res.resumeState(n, cfg.K, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	m := embed.NewModel(n, cfg.K)
	m.InitUniform(xrand.New(cfg.Seed), cfg.InitLo, cfg.InitHi)
	startLevel := 0
	prevLL := math.Inf(-1)
	if resume != nil {
		if resume.Level > len(levels) {
			return nil, nil, fmt.Errorf("infer: resume state has %d levels done, hierarchy only has %d — different data or configuration", resume.Level, len(levels))
		}
		m, startLevel, prevLL = resume.Model, resume.Level, resume.LogLik
	}
	tr := &Trace{}
	for li := startLevel; li < len(levels); li++ {
		// boundary is the shutdown snapshot: the model exactly as this
		// level found it, so a resume re-runs the level from scratch.
		boundary := &checkpoint.State{Model: m.Clone(), Level: li, Seed: cfg.Seed, LogLik: prevLL}
		if err := ctx.Err(); err != nil {
			return nil, nil, res.finalCheckpoint(err, boundary)
		}
		work, err := runLevel(ctx, m, cs, levels[li], cfg, opts.Workers)
		if err != nil {
			if canceled(err) {
				return nil, nil, res.finalCheckpoint(err, boundary)
			}
			return nil, nil, err
		}
		ll := m.LogLikAll(cs)
		tr.Levels = append(tr.Levels, LevelStats{
			Communities: levels[li].NumCommunities(),
			LogLik:      ll,
			TaskWork:    work,
		})
		tr.LogLik = append(tr.LogLik, ll)
		prevLL = ll
		if err := res.save(&checkpoint.State{Model: m, Level: li + 1, Seed: cfg.Seed, LogLik: ll}); err != nil {
			return nil, nil, err
		}
	}
	tr.Elapsed = time.Since(start)
	return m, tr, nil
}
