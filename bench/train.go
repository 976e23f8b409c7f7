package main

import (
	"fmt"
	"runtime"
	"time"

	"viralcast"
	"viralcast/internal/cascade"
	"viralcast/internal/cooccur"
	"viralcast/internal/core"
	"viralcast/internal/embed"
	"viralcast/internal/infer"
	"viralcast/internal/slpa"
	"viralcast/internal/vecmath"
	"viralcast/internal/xrand"
)

// Train workload constants: the paper's pipeline at a size one fit of
// which takes about a second on the reference box, so a run holds
// enough fits for a median.
const (
	trainTopics = 4
	trainIters  = 10
	f1Floor     = 0.30 // sanity floor; regressions are caught by the gated f1
)

// runTrain times core.Train fits back to back. An operation is one fit;
// an item is one training infection. Every fit is followed, outside the
// timed interval, by TrainPredictor and Evaluate on held-out cascades.
func runTrain(p params) (*result, error) {
	sz := sized(p.scale)
	var train, held []*cascade.Cascade
	setups := make([]float64, sz.setups)
	for i := range setups {
		t0 := time.Now()
		var err error
		if train, held, err = drawCascades(p.seed, sz.trainNodes, sz.trainCascades, sz.trainHeldOut); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	n := sz.trainNodes
	infections := 0
	for _, c := range train {
		infections += c.Size()
	}
	cfg := core.TrainConfig{Topics: trainTopics, MaxIter: trainIters, Workers: runtime.GOMAXPROCS(0), Seed: worldSeed}
	threshold := viralcast.TopSizeThreshold(train, topFraction)
	initial := embed.NewModel(n, trainTopics)
	ic := infer.Config{}.WithDefaults()
	initial.InitUniform(xrand.New(worldSeed), ic.InitLo, ic.InitHi)
	initialLL := initial.LogLikAll(train)

	res := &result{}
	fail := func(format string, args ...any) {
		res.Failed++
		fmt.Fprintf(p.log, "# train: FAILED: "+format+"\n", args...)
	}
	var fits, predictorS []float64
	var f1 float64
	var sys *core.System
	goBefore := readGo()
	for start := time.Now(); time.Since(start) < p.duration(1); {
		t0 := time.Now()
		var err error
		if sys, err = core.Train(train, n, cfg); err != nil {
			return nil, err
		}
		fits = append(fits, time.Since(t0).Seconds())
		res.Attempted++
		if err := sys.Embeddings.Validate(); err != nil {
			fail("fitted embeddings: %v", err)
		}
		if ll := sys.Embeddings.LogLikAll(train); !(ll > initialLL) {
			fail("fitted log-likelihood %v is not above the initial model's %v", ll, initialLL)
		}
		t0 = time.Now()
		pred, err := sys.TrainPredictor(train, earlyCutoff, threshold)
		if err != nil {
			return nil, err
		}
		predictorS = append(predictorS, time.Since(t0).Seconds())
		conf, err := pred.Evaluate(held)
		if err != nil {
			return nil, err
		}
		if len(fits) > 1 && conf.F1() != f1 {
			fail("f1 %v differs from the previous fit's %v on the same inputs", conf.F1(), f1)
		}
		if f1 = conf.F1(); f1 < f1Floor {
			fail("held-out f1 %v is below the floor %v", f1, f1Floor)
		}
	}
	goAfter := readGo()
	fit := median(fits)
	vals := map[string]float64{
		"setup_s":                 median(setups),
		"items_per_s":             float64(infections) / fit,
		"latency_p50_ms":          fit * 1e3,
		"f1":                      f1,
		"core.train_predictor_s":  median(predictorS),
		"go.allocs_per_item":      (goAfter.allocs - goBefore.allocs) / float64(infections*len(fits)),
		"go.alloc_bytes_per_item": (goAfter.bytes - goBefore.bytes) / float64(infections*len(fits)),
		"go.gc_cpu_share":         (goAfter.gcCPU - goBefore.gcCPU) / (goAfter.totalCPU - goBefore.totalCPU),
	}
	fmt.Fprintf(p.log, "# train: GOMAXPROCS %d, %s, %d nodes, %d cascades, %d infections, %d fits (%d latency samples)\n",
		runtime.GOMAXPROCS(0), runtime.Version(), n, len(train), infections, len(fits), len(fits))
	if p.trace {
		if err := traceTrain(p, train, n, infections, cfg, sys, fit, vals); err != nil {
			return nil, err
		}
	}
	vals["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	vals["rss_peak_mb"] = rssPeakMB()
	res.Correct = res.Failed == 0
	res.Metrics = report(p.trace, vals)
	return res, nil
}

// traceTrain is the traced run: one more core.Train as the top span,
// then the three stages it is made of called separately on the same
// inputs, then the same job three other ways as baselines.
func traceTrain(p params, train []*cascade.Cascade, n, infections int, cfg core.TrainConfig, sys *core.System, untracedFit float64, vals map[string]float64) error {
	t := &tracer{origin: time.Now(), client: 1}
	timed := func(parent int64, layer string, fn func() error) (int64, float64, error) {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		return t.add(parent, 1, opFit, layer, len(train), t0, d), d.Seconds(), err
	}
	top, fit, err := timed(0, "core", func() error {
		_, err := core.Train(train, n, cfg)
		return err
	})
	if err != nil {
		return err
	}
	vals["core.train_s"] = fit
	vals["trace.overhead_share"] = fit/untracedFit - 1

	// The stages, with the seeds and options infer.Pipeline gives them.
	icfg := infer.Config{K: cfg.Topics, MaxIter: cfg.MaxIter, Seed: cfg.Seed}
	g, err := cooccur.Build(train, n, cooccur.Options{})
	if err != nil {
		return err
	}
	_, vals["cooccur.build_s"], _ = timed(top, "cooccur", func() error {
		_, err := cooccur.Build(train, n, cooccur.Options{})
		return err
	})
	vals["cooccur.edges"] = float64(g.M())
	var part *slpa.Partition
	_, vals["slpa.detect_s"], _ = timed(top, "slpa", func() error {
		part = slpa.Detect(g, slpa.Options{}, xrand.New(cfg.Seed^0x5eed))
		return nil
	})
	vals["slpa.communities"] = float64(part.NumCommunities())
	var tr *infer.Trace
	if _, vals["infer.hierarchical_s"], err = timed(top, "infer", func() error {
		_, tr, err = infer.Hierarchical(train, n, part, icfg, infer.ParallelOptions{Workers: cfg.Workers, Q: 1})
		return err
	}); err != nil {
		return err
	}
	vals["infer.levels"] = float64(len(tr.Levels))
	stages := vals["cooccur.build_s"] + vals["slpa.detect_s"] + vals["infer.hierarchical_s"]
	fmt.Fprintf(p.log, "# ladder train: core.Train %.3f s (untraced median %.3f s, %+.1f%%) = cooccur %.3f + slpa %.3f + infer %.3f + core self %.3f (stages sum to %.1f%% of the fit)\n",
		fit, untracedFit, 100*vals["trace.overhead_share"], vals["cooccur.build_s"], vals["slpa.detect_s"],
		vals["infer.hierarchical_s"], fit-stages, 100*stages/fit)

	// Hierarchical's Trace does not count epochs; Sequential's does.
	if _, vals["infer.sequential_s"], err = timed(0, "infer.sequential", func() error {
		_, tr, err = infer.Sequential(train, n, icfg)
		return err
	}); err != nil {
		return err
	}
	vals["infer.epochs"] = float64(tr.Iters)
	if _, vals["infer.hogwild_s"], err = timed(0, "infer.hogwild", func() error {
		_, _, err := infer.Hogwild(train, n, icfg, infer.HogwildOptions{Workers: cfg.Workers})
		return err
	}); err != nil {
		return err
	}
	if _, vals["infer.hierarchical_w1_s"], err = timed(0, "infer.hierarchical_w1", func() error {
		_, _, err := infer.Hierarchical(train, n, part, icfg, infer.ParallelOptions{Workers: 1, Q: 1})
		return err
	}); err != nil {
		return err
	}

	// embed: the two per-cascade kernels every epoch is made of.
	m := sys.Embeddings
	dA, dB := vecmath.NewMatrix(n, m.K()), vecmath.NewMatrix(n, m.K())
	ws := embed.NewGradWorkspace(m.K())
	vals["embed.accumgrad_ns_per_infection"] = timeNS(p.duration(0.002), func() {
		for _, c := range train {
			m.AccumGrad(c, dA, dB, ws)
		}
	}) / float64(infections)
	var sink float64
	vals["embed.loglik_ns_per_infection"] = timeNS(p.duration(0.002), func() { sink += m.LogLikAll(train) }) / float64(infections)
	_ = sink
	return writeTrace("train", t.spans, nil)
}
