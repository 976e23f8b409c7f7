// Command viralcast is the CLI for the library: simulate cascades,
// infer embeddings, rank influencers, and predict viral cascades.
//
// Subcommands:
//
//	viralcast simulate -n 2000 -cascades 3000 -out cascades.txt
//	    Generate an SBM network with a planted model and write the
//	    simulated cascades in the text format of internal/cascade.
//
//	viralcast simulate -model model.txt -trials 500 -window 4
//	    Campaign mode: Monte Carlo what-if comparison of candidate seed
//	    sets against a fitted model — reach distributions, time-to-size
//	    milestones, and pairwise win rates. -seed-sets names explicit
//	    campaigns ("celf:0,1,2;top:5,6"); by default it pits CELF seeds
//	    against the top-influence nodes at the same -budget (one set, no
//	    race, when CELF picks exactly the top nodes). The same
//	    engine serves POST /v1/simulate on the daemon.
//
//	viralcast infer -n 2000 -in cascades.txt -topics 4 -out model.txt
//	    Fit influence/selectivity embeddings from observed cascades with
//	    the hierarchical community-parallel algorithm.
//
// The training subcommands (infer, influencers, predict) support
// fault-tolerant runs: -checkpoint FILE persists an atomic training
// snapshot at every hierarchy level boundary, SIGINT/SIGTERM
// triggers a graceful shutdown that writes a final snapshot before
// exiting, and -resume continues from the snapshot file.
//
//	viralcast influencers -n 2000 -in cascades.txt -top 20
//	    Train and print the highest-influence nodes per topic.
//
//	viralcast predict -n 2000 -in cascades.txt -early 2.86 -top 0.2
//	    Train on the first 2/3 of the cascades, fit the virality
//	    classifier at the top-`top` size threshold, and report held-out
//	    precision/recall/F1.
//
//	viralcast analyze -in cascades.txt
//	    Print summary statistics of a cascade file.
//
//	viralcast serve -addr :8080 -model model.txt -cascades cascades.txt
//	    Run viralcastd, the online model-serving daemon: stream cascade
//	    events in over HTTP, answer virality predictions for live
//	    cascades, and expose rates/influencers/seeds behind a TTL cache.
//	    SIGHUP or POST /v1/reload hot-swaps the model from disk with
//	    zero downtime; SIGINT/SIGTERM drains gracefully. With -wal-dir,
//	    ingestion is durable: events are group-committed to a write-ahead
//	    log before they are acknowledged, and a restart replays the log.
//
//	viralcast serve -follow http://primary:8080 -wal-dir follower-wal/
//	    Run viralcastd as a read-only replication follower: stream the
//	    primary's write-ahead log segments, from its oldest one on, into
//	    a local mirror, serve reads once caught up, and redirect
//	    ingestion to the primary.
//
//	viralcast route -addr :8080 -shards http://s0:9090,http://s1:9091,http://s2:9092
//	    Run the fleet front-end over sharded daemons (each started with
//	    -shard-id i -ring-size N): cascade-scoped requests route to the
//	    owning shard by consistent hash, global rankings scatter-gather
//	    and merge byte-identically to a single daemon, and a dead shard
//	    degrades answers to explicit partials instead of failures.
//	    -replicas-of "1=http://f1:9191" adds a follower that reads fall
//	    back to when the primary fails.
//	    -auto-failover arms the supervision layer: after -suspect-after
//	    consecutive failed probes the router verifies the follower
//	    (servable, fully caught up), promotes it at a fresh
//	    fencing epoch, rewrites the ring slot, and quarantines the
//	    fenced ex-primary — no operator in the loop.
//
//	viralcast promote -base http://follower:8081
//	    Flip a follower into a writable primary (failover): truncate at
//	    the last verified frame, open the mirrored log for writes, and
//	    start accepting ingestion without a restart. Each promotion
//	    bumps a persisted, CRC-signed fencing epoch; -epoch N presents
//	    an explicit epoch, which must exceed anything the node has
//	    persisted or observed (the only way to resurrect a fenced node).
//
//	viralcast wal <inspect|verify|replay> -dir wal/
//	    Read-only tools for a daemon's write-ahead log directory:
//	    per-segment health, chain fingerprints, torn-tail detection,
//	    per-record replication cursors (-records), and export of the
//	    logged events as a cascade file.
//
//	viralcast version
//	    Report build information (also: viralcast -version).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/eval"
	"viralcast/internal/report"
	"viralcast/internal/stats"
	"viralcast/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the context; the training loops notice at the
	// next consistency boundary, write a final checkpoint if one is
	// configured, and unwind cleanly instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "simulate":
		err = cmdSimulate(ctx, os.Args[2:])
	case "infer":
		err = cmdInfer(ctx, os.Args[2:])
	case "influencers":
		err = cmdInfluencers(ctx, os.Args[2:])
	case "predict":
		err = cmdPredict(ctx, os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "route":
		err = cmdRoute(ctx, os.Args[2:])
	case "promote":
		err = cmdPromote(os.Args[2:])
	case "wal":
		err = cmdWAL(os.Args[2:])
	case "version", "-version", "--version":
		err = cmdVersion()
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "viralcast: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "viralcast: %v\n", err)
		os.Exit(1)
	}
}

// checkpointFlags registers the fault-tolerance flags shared by the
// training subcommands.
type checkpointFlags struct {
	path   *string
	resume *bool
}

func addCheckpointFlags(fs *flag.FlagSet) checkpointFlags {
	return checkpointFlags{
		path:   fs.String("checkpoint", "", "persist training snapshots to this file (atomic writes)"),
		resume: fs.Bool("resume", false, "continue from the -checkpoint snapshot if it exists"),
	}
}

func (c checkpointFlags) apply(cfg *core.TrainConfig) {
	cfg.CheckpointPath = *c.path
	cfg.Resume = *c.resume
}

// reportInterrupted prints resume guidance after a mid-training
// cancellation, provided a checkpoint file actually exists.
func reportInterrupted(err error, path string) {
	if err == nil || !errors.Is(err, context.Canceled) || path == "" {
		return
	}
	if _, statErr := os.Stat(path); statErr == nil {
		fmt.Fprintf(os.Stderr, "interrupted; checkpoint saved to %s; rerun with -resume to continue\n", path)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: viralcast <simulate|infer|influencers|predict|analyze|serve|route|promote|wal|version> [flags]")
	fmt.Fprintln(os.Stderr, "run 'viralcast <subcommand> -h' for subcommand flags")
}

func cmdSimulate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	n := fs.Int("n", 2000, "number of nodes")
	cascades := fs.Int("cascades", 3000, "number of cascades to simulate")
	window := fs.Float64("window", 10, "observation window (campaign mode: the scenario horizon)")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "", "output file (default stdout)")
	model := fs.String("model", "", "campaign mode: run a Monte Carlo what-if comparison against this embeddings file instead of generating SBM cascades")
	sets := fs.String("seed-sets", "", `campaign mode: candidate campaigns as "name:0,1,2;other:5,6" (default: CELF vs top influencers at -budget)`)
	trials := fs.Int("trials", 200, "campaign mode: Monte Carlo replications per seed set")
	budget := fs.Int("budget", 5, "campaign mode: seeds per auto-generated candidate set")
	maxSize := fs.Int("max-size", 0, "campaign mode: stop each trial at this cascade size (0 = no cap)")
	milestones := fs.String("milestones", "", "campaign mode: comma-separated time-to-size milestones (default 5,10,25,50)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model != "" {
		return runCampaign(ctx, campaignOpts{
			model:      *model,
			sets:       *sets,
			trials:     *trials,
			horizon:    *window,
			seed:       *seed,
			budget:     *budget,
			maxSize:    *maxSize,
			milestones: *milestones,
		})
	}
	c := workload.Default()
	c.N = *n
	c.Cascades = *cascades
	c.Window = *window
	c.Seed = *seed
	d, err := workload.Build(c)
	if err != nil {
		return err
	}
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := cascade.Write(dst, d.Cascades); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simulated %d cascades over %d nodes (mean size %.1f)\n",
		len(d.Cascades), *n, cascade.MeanSize(d.Cascades))
	return nil
}

func cmdInfer(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	in := fs.String("in", "", "cascade file (required)")
	n := fs.Int("n", 0, "number of nodes (default: inferred from the file)")
	topics := fs.Int("topics", 4, "latent topic dimension K")
	iters := fs.Int("iters", 30, "max EM epochs per level")
	workers := fs.Int("workers", 4, "parallel community workers")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "", "write the fitted embeddings (CSV) to this file")
	ck := addCheckpointFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("infer: -in is required")
	}
	cs, nn, err := cascade.ReadFile(*in, *n)
	if err != nil {
		return err
	}
	cfg := core.TrainConfig{
		Topics: *topics, MaxIter: *iters, Workers: *workers, Seed: *seed,
	}
	ck.apply(&cfg)
	sys, err := core.TrainCtx(ctx, cs, nn, cfg)
	if err != nil {
		reportInterrupted(err, *ck.path)
		return err
	}
	if len(sys.Trace.Levels) > 0 {
		last := sys.Trace.Levels[len(sys.Trace.Levels)-1]
		fmt.Fprintf(os.Stderr, "fitted %d nodes x %d topics; %d hierarchy levels; final loglik %.1f; %v\n",
			nn, *topics, len(sys.Trace.Levels), last.LogLik, sys.Trace.Elapsed)
	} else {
		// Resuming a checkpoint of an already-finished run re-runs zero
		// levels; the model is the snapshot as-is.
		fmt.Fprintf(os.Stderr, "resumed a completed fit: %d nodes x %d topics; nothing left to run\n", nn, *topics)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		// The versioned envelope lets `serve` and LoadSystem reject
		// foreign or truncated files instead of decoding garbage.
		return sys.SaveEmbeddings(f)
	}
	return nil
}

func cmdInfluencers(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("influencers", flag.ExitOnError)
	in := fs.String("in", "", "cascade file (required)")
	n := fs.Int("n", 0, "number of nodes (default: inferred)")
	topics := fs.Int("topics", 4, "latent topic dimension K")
	iters := fs.Int("iters", 30, "max epochs per level")
	top := fs.Int("top", 20, "how many influencers to print")
	seed := fs.Uint64("seed", 1, "random seed")
	ck := addCheckpointFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("influencers: -in is required")
	}
	cs, nn, err := cascade.ReadFile(*in, *n)
	if err != nil {
		return err
	}
	cfg := core.TrainConfig{Topics: *topics, MaxIter: *iters, Seed: *seed}
	ck.apply(&cfg)
	sys, err := core.TrainCtx(ctx, cs, nn, cfg)
	if err != nil {
		reportInterrupted(err, *ck.path)
		return err
	}
	rows := make([][]string, 0, *top)
	for i, inf := range sys.TopInfluencers(*top) {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", inf.Node),
			report.FormatFloat(inf.Score, 4),
			fmt.Sprintf("%d", inf.TopTopic),
			report.FormatFloat(inf.TopWeight, 4),
		})
	}
	fmt.Print(report.Table([]string{"rank", "node", "influence", "top-topic", "weight"}, rows))
	return nil
}

func cmdPredict(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	in := fs.String("in", "", "cascade file (required)")
	n := fs.Int("n", 0, "number of nodes (default: inferred)")
	topics := fs.Int("topics", 4, "latent topic dimension K")
	iters := fs.Int("iters", 30, "max epochs per level")
	early := fs.Float64("early", 0, "early-adopter cutoff time (default: 2/7 of the max observed time)")
	topFrac := fs.Float64("top", 0.2, "viral class = top fraction of cascade sizes")
	seed := fs.Uint64("seed", 1, "random seed")
	ck := addCheckpointFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("predict: -in is required")
	}
	cs, nn, err := cascade.ReadFile(*in, *n)
	if err != nil {
		return err
	}
	if len(cs) < 30 {
		return fmt.Errorf("predict: need at least 30 cascades, got %d", len(cs))
	}
	split := len(cs) * 2 / 3
	train, test := cs[:split], cs[split:]
	cutoff := *early
	if cutoff <= 0 {
		cutoff = core.DefaultEarlyCutoff(cs)
	}
	cfg := core.TrainConfig{Topics: *topics, MaxIter: *iters, Seed: *seed}
	ck.apply(&cfg)
	sys, err := core.TrainCtx(ctx, train, nn, cfg)
	if err != nil {
		reportInterrupted(err, *ck.path)
		return err
	}
	thr := eval.TopFractionThreshold(cascade.Sizes(train), *topFrac)
	pred, err := sys.TrainPredictor(train, cutoff, thr)
	if err != nil {
		return err
	}
	conf, err := pred.Evaluate(test)
	if err != nil {
		return err
	}
	fmt.Printf("early cutoff %.3g, viral threshold >= %d reports (top %.0f%%)\n", cutoff, thr, *topFrac*100)
	fmt.Printf("held-out: precision %.3f  recall %.3f  F1 %.3f  accuracy %.3f  (TP %d FP %d TN %d FN %d)\n",
		conf.Precision(), conf.Recall(), conf.F1(), conf.Accuracy(),
		conf.TP, conf.FP, conf.TN, conf.FN)
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "", "cascade file (required)")
	n := fs.Int("n", 0, "number of nodes (default: inferred)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("analyze: -in is required")
	}
	cs, nn, err := cascade.ReadFile(*in, *n)
	if err != nil {
		return err
	}
	sizes := make([]float64, len(cs))
	durations := make([]float64, 0, len(cs))
	for i, c := range cs {
		sizes[i] = float64(c.Size())
		if c.Size() >= 2 {
			durations = append(durations, c.Duration())
		}
	}
	sizeSum, err := stats.Summarize(sizes)
	if err != nil {
		return err
	}
	fmt.Printf("cascades: %d over %d nodes, %d total infections\n", len(cs), nn, cascade.TotalInfections(cs))
	fmt.Printf("sizes: mean %.1f median %.0f p75 %.0f max %.0f\n",
		sizeSum.Mean, sizeSum.Median, sizeSum.Q3, sizeSum.Max)
	if len(durations) > 0 {
		durSum, err := stats.Summarize(durations)
		if err != nil {
			return err
		}
		fmt.Printf("durations (size>=2): mean %.2f median %.2f max %.2f\n",
			durSum.Mean, durSum.Median, durSum.Max)
	}
	// Per-node participation: the Matthew-effect view.
	counts := make([]int, nn)
	for _, c := range cs {
		for _, inf := range c.Infections {
			counts[inf.Node]++
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	active := 0
	for _, c := range counts {
		if c > 0 {
			active++
		}
	}
	fmt.Printf("active nodes: %d/%d; top node appears in %d cascades\n", active, nn, counts[0])
	return nil
}
