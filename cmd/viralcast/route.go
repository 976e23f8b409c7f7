package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"viralcast/internal/router"
)

// cmdRoute runs the fleet front-end: a stateless router that owns a
// consistent-hash ring over the -shards list, proxies cascade-scoped
// requests to the owning shard, and scatter-gathers the global queries
// with a merge byte-identical to a single daemon. Each shard must be a
// viralcastd started with -shard-id i -ring-size N matching its
// position in the -shards list; -replicas-of attaches read followers,
// which a read tries, after a jittered pause, when the primary fails.
func cmdRoute(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	shards := fs.String("shards", "", `comma-separated shard base URLs in ring order (required); position i must be the daemon started with -shard-id i`)
	replicas := fs.String("replicas-of", "", `comma-separated "i=url" pairs attaching a read follower to shard i (e.g. "0=http://host:9090,2=http://host:9092")`)
	requestTimeout := fs.Duration("request-timeout", 0, "per-request budget, propagated to shard calls; slow shards degrade the answer to a partial within it (0 disables)")
	probeEvery := fs.Duration("probe-every", 2*time.Second, "background shard health-probe cadence")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	autoFailover := fs.Bool("auto-failover", false, "automatically promote a shard's follower (at a fresh fencing epoch) when its primary fails consecutive health probes")
	suspectAfter := fs.Int("suspect-after", 3, "consecutive failed probes before a shard primary is suspected dead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fleet, err := parseShards(*shards, *replicas)
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, "viralcast-router: ", log.LstdFlags)
	rt, err := router.New(router.Config{
		Shards:         fleet,
		RequestTimeout: *requestTimeout,
		ProbeEvery:     *probeEvery,
		DrainTimeout:   *drain,
		AutoFailover:   *autoFailover,
		SuspectAfter:   *suspectAfter,
		Logf:           func(format string, a ...any) { logger.Printf(format, a...) },
	})
	if err != nil {
		return err
	}
	bound, err := rt.Listen(*addr)
	if err != nil {
		return err
	}
	logger.Printf("routing %d shards, listening on %s", len(fleet), bound)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound.String()), 0o644); err != nil {
			return err
		}
	}
	return rt.Serve(ctx)
}

// parseShards turns the -shards list and the -replicas-of pairs into
// the router's fleet description.
func parseShards(shardList, replicaList string) ([]router.Shard, error) {
	if shardList == "" {
		return nil, fmt.Errorf("route: -shards is required (comma-separated shard base URLs in ring order)")
	}
	var fleet []router.Shard
	for pos, raw := range strings.Split(shardList, ",") {
		u, ok := shardTarget(raw)
		if !ok {
			return nil, fmt.Errorf("route: -shards entry %d (%q) names no host", pos, raw)
		}
		fleet = append(fleet, router.Shard{Primary: u})
	}
	for pos, raw := range strings.Split(replicaList, ",") {
		pair := strings.TrimSpace(raw)
		if pair == "" {
			continue
		}
		idx, target, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("route: -replicas-of entry %q is not i=url", pair)
		}
		i, err := strconv.Atoi(strings.TrimSpace(idx))
		if err != nil || i < 0 || i >= len(fleet) {
			return nil, fmt.Errorf("route: -replicas-of shard index %q outside fleet [0, %d)", idx, len(fleet))
		}
		u, ok := shardTarget(target)
		if !ok {
			return nil, fmt.Errorf("route: -replicas-of entry %d (%q) names no host", pos, pair)
		}
		if fleet[i].Follower != "" {
			return nil, fmt.Errorf("route: shard %d has two followers; one is the limit", i)
		}
		fleet[i].Follower = u
	}
	return fleet, nil
}

// shardTarget normalises one base URL of -shards or -replicas-of: the
// scheme defaults to http and trailing slashes go. False when nothing is
// left to dial — "", "http://" — which would otherwise become the
// target "http:".
func shardTarget(raw string) (string, bool) {
	u := strings.TrimSpace(raw)
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	u = strings.TrimRight(u, "/")
	_, host, _ := strings.Cut(u, "://")
	return u, host != ""
}
