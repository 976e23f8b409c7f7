package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"viralcast/internal/router"
	"viralcast/internal/serve"
)

// sut is the system under test, running in this process the way the
// `viralcast serve` and `viralcast route` commands run it (New, Listen,
// Serve), so the same harness can enter it at any layer: over HTTP at
// entry, over HTTP at a shard, or straight at a handler.
type sut struct {
	entry  string // base URL requests are sent to
	shards []*serve.Server
	urls   []string // shards' base URLs
	router *router.Router
	walDir string // removed by stop; empty when the WAL is off

	cancel context.CancelFunc
	done   chan error // one value per running Serve loop
	loops  int
}

// drain bounds each Serve loop's shutdown. Nothing is in flight when the
// benchmark stops a stage, but the router's transport leaves dialled,
// never-used connections behind, and net/http waits five seconds before
// it counts such a connection as idle.
const drain = 250 * time.Millisecond

// startSUT brings up one plain daemon, or with shards > 1 that many
// WAL-backed ring members behind a router.
func startSUT(fx *fixture, shards int, walDir string) (_ *sut, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &sut{cancel: cancel, done: make(chan error, shards+1), walDir: walDir}
	defer func() {
		if err != nil {
			s.stop() //nolint:errcheck // the start-up error is the one to report
		}
	}()
	loader := func() (*serve.LoadedModel, error) {
		return &serve.LoadedModel{Sys: fx.sys, Pred: fx.pred}, nil
	}
	for i := 0; i < shards; i++ {
		cfg := serve.Config{Loader: loader, DrainTimeout: drain}
		if shards > 1 {
			cfg.ShardID, cfg.RingSize = i, shards
			cfg.WALDir = filepath.Join(walDir, fmt.Sprintf("shard-%d", i))
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			srv.Close() //nolint:errcheck // already failing
			return nil, err
		}
		s.shards = append(s.shards, srv)
		s.urls = append(s.urls, "http://"+addr.String())
		s.loops++
		go func() { s.done <- srv.Serve(ctx) }()
	}
	s.entry = s.urls[0]
	if shards == 1 {
		return s, nil
	}
	members := make([]router.Shard, shards)
	for i, u := range s.urls {
		members[i] = router.Shard{Primary: u}
	}
	if s.router, err = router.New(router.Config{Shards: members, DrainTimeout: drain}); err != nil {
		return nil, err
	}
	addr, err := s.router.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.entry = "http://" + addr.String()
	s.loops++
	go func() { s.done <- s.router.Serve(ctx) }()
	return s, nil
}

// stop drains every Serve loop and removes the WAL directory.
func (s *sut) stop() error {
	s.cancel()
	var first error
	for ; s.loops > 0; s.loops-- {
		if err := <-s.done; err != nil && first == nil {
			first = err
		}
	}
	if s.walDir != "" {
		if err := os.RemoveAll(s.walDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counters is what the benchmark reads off /metrics, summed over the
// shards, plus the router's own.
type counters struct {
	cacheHits, cacheMisses, shed             float64
	walFsyncs, walAppends, walBytes          float64
	routerHits, routerMisses, routerPartials float64
}

func (c counters) minus(o counters) counters {
	return counters{
		c.cacheHits - o.cacheHits, c.cacheMisses - o.cacheMisses, c.shed - o.shed,
		c.walFsyncs - o.walFsyncs, c.walAppends - o.walAppends, c.walBytes - o.walBytes,
		c.routerHits - o.routerHits, c.routerMisses - o.routerMisses, c.routerPartials - o.routerPartials,
	}
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func scrape(url string, into any) error {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, into)
}

func (s *sut) counters() (counters, error) {
	var c counters
	for _, u := range s.urls {
		var m struct {
			CacheHits   float64            `json:"cache_hits"`
			CacheMisses float64            `json:"cache_misses"`
			Shed        map[string]float64 `json:"overload_shed"`
			WALFsyncs   float64            `json:"wal_fsyncs"`
			WALAppends  float64            `json:"wal_appends"`
			WALBytes    float64            `json:"wal_bytes"`
		}
		if err := scrape(u, &m); err != nil {
			return c, err
		}
		c.cacheHits += m.CacheHits
		c.cacheMisses += m.CacheMisses
		for _, n := range m.Shed {
			c.shed += n
		}
		c.walFsyncs += m.WALFsyncs
		c.walAppends += m.WALAppends
		c.walBytes += m.WALBytes
	}
	if s.router != nil {
		var m struct {
			CacheHits   float64 `json:"cache_hits"`
			CacheMisses float64 `json:"cache_misses"`
			Partials    float64 `json:"partial_results"`
		}
		if err := scrape(s.entry, &m); err != nil {
			return c, err
		}
		c.routerHits, c.routerMisses, c.routerPartials = m.CacheHits, m.CacheMisses, m.Partials
	}
	return c, nil
}

// owner is the shard that holds a cascade: the only one on a plain
// daemon, the ring's choice behind a router.
func (s *sut) owner(id int) int {
	if s.router == nil {
		return 0
	}
	return s.router.Ring().Owner(id)
}
