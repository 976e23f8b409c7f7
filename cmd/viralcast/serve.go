package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"viralcast/internal/core"
	"viralcast/internal/serve"
)

// cmdServe runs viralcastd: load a fitted model (embeddings file or
// training checkpoint), optionally train the virality predictor from a
// cascade file, and serve the streaming-ingestion + prediction API until
// the context is canceled. SIGHUP hot-reloads the model from disk.
//
// With -follow URL the daemon is a read-only replication follower: it
// streams the primary's WAL segments, from the oldest one on, into a
// mirror under -wal-dir, answers reads once caught up, and 409s
// ingestion with a pointer at the primary. POST /v1/promote (or `viralcast promote`)
// flips it to a writable primary without a restart.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	model := fs.String("model", "", "embeddings file written by `viralcast infer -out` (this or -checkpoint is required)")
	ckpt := fs.String("checkpoint", "", "serve from a training checkpoint instead of an embeddings file")
	cascades := fs.String("cascades", "", "cascade file for predictor training and the online refit's corpus (enables /v1/cascades/{id}/predict)")
	early := fs.Float64("early", 0, "predictor early-adopter cutoff (default: 2/7 of the max observed time)")
	topFrac := fs.Float64("top", 0.2, "viral class = top fraction of training cascade sizes")
	seed := fs.Uint64("seed", 1, "random seed for predictor training")
	flushEvery := fs.Duration("flush-every", time.Minute, "cadence of the online refit over the -cascades corpus and the live cascades (0 disables; without -cascades a flush keeps the loaded model)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	walDir := fs.String("wal-dir", "", "write-ahead log directory: make ingestion durable across crashes (empty disables)")
	follow := fs.String("follow", "", "run as a read-only replication follower of this primary base URL (requires -wal-dir for the mirrored log; promote with `viralcast promote`)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent requests allowed on the compute endpoints (predict, influencers, seeds, simulate, predict:batch, features:batch); 0 = default 16, -1 = unlimited")
	queue := fs.Int("queue", 0, "requests beyond -max-inflight that may wait for a compute slot before 429s; 0 = default 64, -1 = no queue")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request budget on the /v1 data plane; exceeded requests answer 503 (0 disables)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (control plane: ungated by admission control, like /metrics)")
	shardID := fs.Int("shard-id", -1, "this daemon's index in a routed fleet (requires -ring-size; see `viralcast route`)")
	ringSize := fs.Int("ring-size", 0, "size of the routed fleet this daemon belongs to (0 = unsharded standalone daemon)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	loader, err := serve.FileLoader(serve.FileLoaderConfig{
		ModelPath:      *model,
		CheckpointPath: *ckpt,
		TrainPath:      *cascades,
		EarlyCutoff:    *early,
		TopFraction:    *topFrac,
		Train:          core.TrainConfig{Seed: *seed},
	})
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, "viralcastd: ", log.LstdFlags)
	srv, err := serve.New(serve.Config{
		Loader:         loader,
		FlushEvery:     *flushEvery,
		DrainTimeout:   *drain,
		WALDir:         *walDir,
		FollowURL:      *follow,
		RequestTimeout: *requestTimeout,
		ShardID:        *shardID,
		RingSize:       *ringSize,
		Admission: serve.AdmissionConfig{
			Compute: serve.ClassLimit{MaxInflight: *maxInflight, MaxQueue: *queue},
		},
		EnablePprof: *pprofFlag,
		Logf:        func(format string, a ...any) { logger.Printf(format, a...) },
	})
	if err != nil {
		return err
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s (model generation %d)", bound, srv.Generation())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound.String()), 0o644); err != nil {
			return err
		}
	}

	// SIGHUP = hot reload, the classic daemon contract. SIGINT/SIGTERM
	// already cancel ctx (wired in main) and trigger the graceful drain.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if _, err := srv.Reload(); err != nil {
				logger.Printf("SIGHUP reload failed: %v", err)
			}
		}
	}()

	return srv.Serve(ctx)
}

// cmdVersion reports build information from the binary itself.
func cmdVersion() error {
	fmt.Printf("viralcast %s\n", buildVersion())
	fmt.Printf("  %s %s/%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				fmt.Printf("  %s=%s\n", kv.Key, kv.Value)
			}
		}
	}
	return nil
}

// buildVersion extracts the module version recorded by the toolchain;
// "devel" for plain `go build` working-tree builds.
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok || bi.Main.Version == "" || bi.Main.Version == "(devel)" {
		return "devel"
	}
	return bi.Main.Version
}
