// Command figures regenerates every figure of the paper's evaluation
// from scratch and prints the series (optionally also writing CSV files).
//
// Usage:
//
//	figures -fig all                 # every figure at the default scale
//	figures -fig 10 -scale paper     # one figure at full paper scale
//	figures -fig 9 -scale small      # quick smoke run
//	figures -fig ablations           # the design-choice ablations
//	figures -fig 12 -csv out/        # also write out/fig12.csv
//
// Two corpus tools ride in front of the -fig flags:
//
//	figures gdelt -sites 2000 -events 1500 -out-sites sites.csv -out-events events.csv
//	    Generate a synthetic GDELT-like news corpus and export its two
//	    tables (site metadata and event reporting cascades).
//	figures cluster -in cascades.txt -k 4
//	    Ward-cluster a cascade file and print the dendrogram (Figure 1).
//
// Figures 4 and 5 in the paper are schematic illustrations with no data
// series; everything else (1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13) is
// covered.
//
// Stdout carries only what -scale and -seed determine, the same bytes at
// any GOMAXPROCS (Figures 10, 11 and 13 model runtime from counted work);
// results/figures_small.log is `-fig all -scale small`'s. Stderr carries
// wall clocks and Hogwild's likelihoods, which depend on thread
// interleaving.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"viralcast/internal/experiments"
	"viralcast/internal/gdelt"
	"viralcast/internal/report"
)

func main() {
	if len(os.Args) > 1 {
		var sub func([]string) error
		switch os.Args[1] {
		case "gdelt":
			sub = cmdGdelt
		case "cluster":
			sub = cmdCluster
		}
		if sub != nil {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				os.Exit(1)
			}
			return
		}
	}
	fig := flag.String("fig", "all", "figure to regenerate: 1,2,3,6,7,8,9,10,11,12,13,ablations,baselines,all")
	scale := flag.String("scale", "default", "workload scale: small, default, paper")
	csvDir := flag.String("csv", "", "directory to write CSV series into (optional)")
	seed := flag.Uint64("seed", 1, "master random seed")
	flag.Parse()

	r := runner{scale: *scale, csvDir: *csvDir, seed: *seed, out: os.Stdout, log: os.Stderr}
	if err := r.runAll(*fig); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

type runner struct {
	scale  string
	csvDir string
	seed   uint64
	// out takes what -scale and -seed determine; log takes what the run
	// measured (wall clock, thread interleaving).
	out, log io.Writer

	// caches so "all" reuses expensive artifacts: one draw and fit per
	// SBM configuration, one optimizer comparison
	ds         *gdelt.Dataset
	workloads  map[experiments.SBMExperiment]*experiments.SBMWorkload
	optimizers []experiments.OptimizerComparison
	scatter    *experiments.FeatureScatterResult
	fig9       *experiments.Figure9Result
	fig10      []*experiments.ScalingSeries
}

// sbmExp returns the SBM study configuration at the chosen scale.
func (r *runner) sbmExp() experiments.SBMExperiment {
	e := experiments.DefaultSBM()
	e.Seed = r.seed
	switch r.scale {
	case "small":
		e.N = 400
		e.Cascades = 450
		e.Train = 300
		e.MaxIter = 8
	case "paper":
		// DefaultSBM already is the paper configuration.
	}
	return e
}

// labExp returns the configuration of the ablations, baselines,
// convergence study and sweeps: the SBM study's, capped above the small
// scale because they run several fits of it.
func (r *runner) labExp() experiments.SBMExperiment {
	e := r.sbmExp()
	if r.scale != "small" {
		e.N, e.Cascades, e.Train = 1000, 1200, 800
	}
	return e
}

// sbm returns the workload of e, drawn and fitted once per run.
func (r *runner) sbm(e experiments.SBMExperiment) (*experiments.SBMWorkload, error) {
	if w := r.workloads[e]; w != nil {
		return w, nil
	}
	w, err := experiments.BuildSBMWorkload(e)
	if err != nil {
		return nil, err
	}
	if r.workloads == nil {
		r.workloads = map[experiments.SBMExperiment]*experiments.SBMWorkload{}
	}
	r.workloads[e] = w
	return w, nil
}

// lab returns the workload of labExp.
func (r *runner) lab() (*experiments.SBMWorkload, error) { return r.sbm(r.labExp()) }

// needOptimizers runs the optimizer comparison on the lab workload once:
// the optimizer ablation and the convergence study read its fits.
func (r *runner) needOptimizers() error {
	if r.optimizers != nil {
		return nil
	}
	w, err := r.lab()
	if err != nil {
		return err
	}
	r.optimizers, err = experiments.AblationOptimizers(w)
	return err
}

func (r *runner) gdeltCfg(events int) gdelt.Config {
	cfg := gdelt.DefaultConfig()
	cfg.Seed = r.seed
	cfg.Events = events
	switch r.scale {
	case "small":
		cfg.Sites = 600
		cfg.Events = events / 4
		if cfg.Events < 200 {
			cfg.Events = 200
		}
		cfg.CrossLinks = 90
	}
	return cfg
}

func (r *runner) dataset(events int) (*gdelt.Dataset, error) {
	if r.ds != nil && len(r.ds.Events) >= events/2 {
		return r.ds, nil
	}
	ds, err := gdelt.Generate(r.gdeltCfg(events))
	if err != nil {
		return nil, err
	}
	r.ds = ds
	return ds, nil
}

func (r *runner) scaling() experiments.ScalingExperiment {
	sc := experiments.DefaultScaling()
	sc.Seed = r.seed
	if r.scale == "small" {
		sc.MaxIter = 8
	}
	return sc
}

func (r *runner) writeCSV(name string, header []string, rows [][]float64) error {
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.csvDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.WriteCSV(f, header, rows)
}

func (r *runner) needScatterFig9() error {
	if r.scatter != nil {
		return nil
	}
	w, err := r.sbm(r.sbmExp())
	if err != nil {
		return err
	}
	scatter, fig9, err := experiments.Figures6to9(w)
	if err != nil {
		return err
	}
	r.scatter, r.fig9 = scatter, fig9
	return nil
}

func (r *runner) needFig10() error {
	if r.fig10 != nil {
		return nil
	}
	n := 2000
	counts := []int{1000, 2000, 3000}
	if r.scale == "small" {
		n = 400
		counts = []int{200, 400, 600}
	}
	series, err := experiments.Figure10(r.scaling(), n, counts)
	if err != nil {
		return err
	}
	r.fig10 = series
	return nil
}

// runAll regenerates every figure the -fig value names, in order.
func (r *runner) runAll(fig string) error {
	targets := strings.Split(fig, ",")
	if fig == "all" {
		targets = []string{"1", "2", "3", "6", "9", "10", "11", "12", "13", "ablations", "baselines", "convergence", "sweeps"}
	}
	for _, tgt := range targets {
		if err := r.run(strings.TrimSpace(tgt)); err != nil {
			return fmt.Errorf("figure %s failed: %w", tgt, err)
		}
	}
	return nil
}

func (r *runner) run(fig string) error {
	switch fig {
	case "1":
		ds, err := r.dataset(5000)
		if err != nil {
			return err
		}
		sample := 5000
		if r.scale == "small" {
			sample = 800
		}
		res, err := experiments.Figure1(ds, sample, r.seed+1)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, res.Render())
	case "2":
		ds, err := r.dataset(5000)
		if err != nil {
			return err
		}
		minShared := 50
		if r.scale != "paper" {
			minShared = 10
		}
		res, err := experiments.Figure2(ds, minShared)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, res.Render())
	case "3":
		ds, err := r.dataset(5000)
		if err != nil {
			return err
		}
		res, err := experiments.Figure3(ds, 2, 12)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, res.Render())
	case "6", "7", "8":
		if err := r.needScatterFig9(); err != nil {
			return err
		}
		fmt.Fprintln(r.out, r.scatter.Render())
		h, rows := r.scatter.CSV()
		return r.writeCSV("fig6to8_scatter.csv", h, rows)
	case "9":
		if err := r.needScatterFig9(); err != nil {
			return err
		}
		fmt.Fprintln(r.out, r.fig9.Render())
		h, rows := r.fig9.CSV()
		return r.writeCSV("fig9_f1.csv", h, rows)
	case "10":
		if err := r.needFig10(); err != nil {
			return err
		}
		fmt.Fprintln(r.out, experiments.RenderScaling("Figure 10 — time vs cores, varying cascade count", r.fig10))
		h, rows := experiments.CSVScaling(r.fig10)
		return r.writeCSV("fig10_scaling.csv", h, rows)
	case "11":
		nodes := []int{1000, 2000, 4000}
		cascades := 2000
		if r.scale == "small" {
			nodes = []int{200, 400, 800}
			cascades = 300
		}
		series, err := experiments.Figure11(r.scaling(), nodes, cascades)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, experiments.RenderScaling("Figure 11 — time vs cores, varying graph size", series))
		h, rows := experiments.CSVScaling(series)
		return r.writeCSV("fig11_scaling.csv", h, rows)
	case "12":
		e := experiments.DefaultGDELTPrediction()
		e.Seed = r.seed
		e.Dataset = r.gdeltCfg(2600)
		if r.scale == "small" {
			e.MaxIter = 8
		}
		res, err := experiments.Figure12(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, res.Render())
		h, rows := res.CSV()
		return r.writeCSV("fig12_f1.csv", h, rows)
	case "13":
		if err := r.needFig10(); err != nil {
			return err
		}
		res := &experiments.Figure13Result{Series: r.fig10}
		fmt.Fprintln(r.out, res.Render())
		h, rows := experiments.CSVScaling(r.fig10)
		return r.writeCSV("fig13_speedup.csv", h, rows)
	case "ablations":
		w, err := r.lab()
		if err != nil {
			return err
		}
		merge, err := experiments.AblationMergePolicy(w, r.scaling(), 8)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, experiments.RenderMergePolicy(merge, 8))
		if err := r.needOptimizers(); err != nil {
			return err
		}
		fmt.Fprintln(r.out, experiments.RenderOptimizers(r.optimizers))
		for _, o := range r.optimizers {
			fmt.Fprintf(r.log, "optimizer %s: %.2f s, train loglik %.1f, heldout %.1f\n", o.Name, o.Seconds, o.LogLik, o.HeldOutLL)
		}
		feat, err := experiments.AblationFeatures(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, experiments.RenderFeatures(feat))
		ks, err := experiments.AblationTopicK(w, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, experiments.RenderTopicSweep(ks))
	case "sweeps":
		w, err := r.lab()
		if err != nil {
			return err
		}
		early, err := experiments.SweepEarlyWindow(w, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, early.Render())
		sizes := []int{100, 200, 400, 800}
		if r.scale == "small" {
			sizes = []int{60, 150, 300}
		}
		sc, err := experiments.SweepTrainingSize(w, sizes)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, sc.Render())
	case "convergence":
		if err := r.needOptimizers(); err != nil {
			return err
		}
		fmt.Fprintln(r.out, experiments.RenderConvergence(r.optimizers))
		for _, o := range r.optimizers {
			if o.Racy {
				fmt.Fprintf(r.log, "convergence: %s per-epoch loglik %.1f\n", o.Name, o.Trace.LogLik)
			}
		}
	case "baselines":
		w, err := r.lab()
		if err != nil {
			return err
		}
		models, err := experiments.CompareEdgeBaseline(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, experiments.RenderModelComparison(models))
		for _, m := range models {
			fmt.Fprintf(r.log, "baseline %s: fitted in %.2f s\n", m.Name, m.Seconds)
		}
		preds, err := experiments.ComparePredictors(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, experiments.RenderPredictorComparison(preds))
	default:
		return fmt.Errorf("unknown figure %q (try 1,2,3,6,9,10,11,12,13,ablations,baselines,convergence,sweeps,all)", fig)
	}
	return nil
}
