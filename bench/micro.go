package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/features"
	"viralcast/internal/inflmax"
	"viralcast/internal/router"
	"viralcast/internal/scenario"
	"viralcast/internal/serve"
	"viralcast/internal/vecmath"
	"viralcast/internal/wal"
)

// Kernel-sized calls are shorter than a clock read: timeNS reads the
// clock once per 64 calls, runs five bursts of at least minBurst each,
// and returns the median burst's nanoseconds per call. A burst is
// 1/500 of the timed region: 20 ms on the benchmark's 10 s.
func timeNS(minBurst time.Duration, fn func()) float64 {
	per := make([]float64, 5)
	for i := range per {
		calls, t0 := 0, time.Now()
		var d time.Duration
		for d < minBurst {
			for j := 0; j < 64; j++ {
				fn()
			}
			calls += 64
			d = time.Since(t0)
		}
		per[i] = float64(d) / float64(calls)
	}
	return median(per)
}

// microServing times the layers under the serving workloads' requests,
// each around its public entry points, on the prefixes the live set
// holds right now.
func microServing(r *rig, ls *liveSet, burst time.Duration, vals map[string]float64) error {
	m := r.fx.sys.Embeddings
	rng := rand.New(rand.NewSource(1))
	const rows = 256
	lives := make([]*cascade.Cascade, rows)
	earlies := make([]*cascade.Cascade, rows)
	for i := range lives {
		id, pos := ls.load(rng.Intn(len(ls.slots)))
		lives[i] = ls.prefix(id, pos)
		earlies[i] = lives[i].Prefix(earlyCutoff)
	}

	// vecmath: the B256x3 block the batched classifier runs, and the
	// K-length products behind every rate and gradient term.
	block := make([]float64, rows*3)
	for i := range block {
		block[i] = rng.NormFloat64()
	}
	dst := make([]float64, rows)
	gemv := timeNS(burst, func() { vecmath.Gemv(dst, block, 3, r.model.W) })
	vals["vecmath.gemv_ns_per_row"] = gemv / rows
	vals["vecmath.gemv_gb_per_s"] = float64(8*(len(block)+len(dst))) / gemv // computed bytes per ns
	a, b := m.A.Row(0), m.B.Row(1)
	var sink float64
	vals["vecmath.dot_ns"] = timeNS(burst, func() { sink += vecmath.Dot(a, b) })
	vals["vecmath.dist2_ns"] = timeNS(burst, func() { sink += vecmath.Dist2(a, b) })

	// features and svm.
	i := 0
	vals["features.extract_ns"] = timeNS(burst, func() {
		fs, _ := features.Extract(m, earlies[i%rows]) //nolint:errcheck // every prefix holds its seed
		sink += fs.NormA
		i++
	})
	errs := make([]error, rows)
	blk := features.GetBlock(rows, len(r.names))
	vals["features.extract_batch_ns_per_cascade"] = timeNS(burst, func() {
		features.ExtractBatch(m, earlies, r.names, blk, errs)
	}) / rows
	vals["svm.decision_block_ns_per_row"] = timeNS(burst, func() {
		r.model.DecisionBlock(dst, blk.Data, len(r.names))
	}) / rows
	features.PutBlock(blk)
	vals["svm.train_s"] = r.trainS

	// core.
	vals["core.predict_ns"] = timeNS(burst, func() {
		_, margin, _ := r.fx.pred.PredictViral(lives[i%rows]) //nolint:errcheck // as above
		sink += margin
		i++
	})
	out := make([]core.BatchResult, rows)
	vals["core.predict_batch_ns_per_cascade"] = timeNS(burst, func() {
		r.fx.pred.PredictViralBatch(lives, out)
	}) / rows
	vals["core.top_influencers_us"] = timeNS(burst, func() { r.fx.sys.TopInfluencers(100) }) / 1e3
	vals["core.train_predictor_s"] = r.fx.trainPredictorS
	vals["infer.sequential_s"] = r.fx.sequentialS

	// serve.Store, on its own instance: append a feed cascade under a
	// fresh id, then snapshot it.
	store := serve.NewStore()
	id := 0
	appendNS := timeNS(burst, func() {
		for _, inf := range r.fx.feed[id%len(r.fx.feed)].Infections {
			store.Append(serve.Event{Cascade: id, Node: inf.Node, Time: inf.Time}, r.fx.n) //nolint:errcheck // feed events are valid
		}
		id++
	})
	events := 0
	for _, c := range r.fx.feed {
		events += c.Size()
	}
	vals["serve.store_append_ns"] = appendNS * float64(len(r.fx.feed)) / float64(events)
	vals["serve.store_snapshot_ns"] = timeNS(burst, func() {
		store.Snapshot(i % id)
		i++
	})

	// router.Ring.
	ring := router.NewRing(3)
	vals["router.ring_owner_ns"] = timeNS(burst, func() {
		sink += float64(ring.Owner(i))
		i++
	})

	// The compute plane: recorded so a later workload can claim it.
	greedy := make([]float64, 3)
	var seeds []int
	for j := range greedy {
		t0 := time.Now()
		res, err := inflmax.Greedy(m, 1, 5, nil)
		if err != nil {
			return err
		}
		greedy[j] = float64(time.Since(t0)) / 1e6
		seeds = seeds[:0]
		for _, s := range res {
			seeds = append(seeds, s.Node)
		}
	}
	vals["inflmax.greedy_ms"] = median(greedy)
	eng, err := scenario.New(m, 0)
	if err != nil {
		return err
	}
	const trials = 8
	t0 := time.Now()
	if _, err := eng.Run(context.Background(), scenario.Spec{
		SeedSets: []scenario.SeedSet{{Nodes: seeds}}, Trials: trials, Horizon: 1, BaseSeed: 1,
	}); err != nil {
		return err
	}
	vals["scenario.run_ms_per_trial"] = float64(time.Since(t0)) / 1e6 / trials

	// wal.Log, where the workload has one: a 64-event group commit.
	if r.log != nil {
		dir := filepath.Join(r.s.walDir, "micro")
		lg, err := wal.Open(dir, wal.Options{}, nil)
		if err != nil {
			return err
		}
		batch := make([]wal.Event, 64)
		var werr error
		vals["wal.append_batch_us"] = timeNS(burst, func() {
			for j := range batch {
				batch[j] = wal.Event{Cascade: id, Node: j, Time: float64(j)}
			}
			id++
			if err := lg.AppendBatch(batch); err != nil {
				werr = err
			}
		}) / 1e3
		if err := lg.Close(); err != nil {
			return err
		}
		if werr != nil {
			return werr
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	_ = sink
	return nil
}
