// Command smoke is the HTTP half of scripts/ci.sh's two live stages. It
// checks only what a test binary cannot show about the *built*
// viralcast binary — that the process an operator starts answers on the
// address it published, keeps what it acknowledged across a kill -9, and
// fronts a fleet of other processes — and leaves every API contract to
// the Go tests that assert it in-process (`go test ./...`; the table in
// EXPERIMENTS.md maps each assertion this client used to make to the
// test that makes it). Exits non-zero on the first failed expectation.
//
//	smoke -base URL                       a daemon: health, ingest one cascade, predict it
//	smoke -base URL -post-crash           a daemon restarted on the WAL directory of a
//	                                      kill -9'd predecessor: the cascade is served again
//	smoke -base URL -route                a `viralcast route` front-end: routed ingest spread
//	                                      over the shards, one whole ranking
//	smoke -base URL -route-partial SHARD  the same router after SHARD was kill -9'd:
//	                                      degraded, and a fresh ranking partial naming it
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"
)

// The cascade the default pass ingests and -post-crash expects back.
const (
	crashCascade = 31337
	crashSize    = 5
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smoke: ")
	base := flag.String("base", "", "daemon or router base URL, e.g. http://127.0.0.1:43321 (required)")
	postCrash := flag.Bool("post-crash", false, "daemon was restarted after a hard kill: verify WAL replay instead of ingesting")
	route := flag.Bool("route", false, "base is a `viralcast route` front-end over a healthy fleet")
	routePartial := flag.String("route-partial", "", "base is a router whose fleet just lost this shard (e.g. shard-1): assert the degraded-partial contract")
	flag.Parse()
	if *base == "" {
		log.Fatal("-base is required")
	}
	c := &client{http: &http.Client{Timeout: 30 * time.Second}, base: *base}
	c.waitUp()
	switch {
	case *route:
		c.checkRoute()
	case *routePartial != "":
		c.checkRoutePartial(*routePartial)
	case *postCrash:
		c.checkPostCrash()
	default:
		c.checkDaemon()
	}
}

type client struct {
	http *http.Client
	base string
}

// waitUp gives a freshly exec'd process time to answer on the address it
// published: connection errors are retried for 15 s. Any HTTP status
// counts as up.
func (c *client) waitUp() {
	var lastErr error
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		resp, err := c.http.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		lastErr = err
	}
	log.Fatalf("nothing came up at %s: %v", c.base, lastErr)
}

// expect performs one request, requires the status, and decodes the
// JSON body into out (nil skips).
func (c *client) expect(method, path string, body any, wantStatus int, out any) {
	var encoded []byte
	if body != nil {
		var err error
		if encoded, err = json.Marshal(body); err != nil {
			log.Fatalf("encoding body for %s: %v", path, err)
		}
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(encoded))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		log.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("%s %s: reading body: %v", method, path, err)
	}
	if resp.StatusCode != wantStatus {
		log.Fatalf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			log.Fatalf("%s %s: undecodable response %q: %v", method, path, data, err)
		}
	}
}

// ingest POSTs events as one batch and requires all of them accepted.
func (c *client) ingest(events []map[string]any, wantAccepted int) {
	var ack struct {
		Accepted int  `json:"accepted"`
		Partial  bool `json:"partial"`
	}
	c.expect("POST", "/v1/events", map[string]any{"events": events}, 200, &ack)
	if ack.Accepted != wantAccepted || ack.Partial {
		log.Fatalf("ingest accepted %d of %d events, want %d (partial=%v)", ack.Accepted, len(events), wantAccepted, ack.Partial)
	}
}

// predictSize requires a 200 prediction for cascade id and returns the
// size and the shard that answered (nil from an unsharded daemon).
func (c *client) predictSize(id int) (size int, shard *int) {
	var pred struct {
		Viral   *bool `json:"viral"`
		Size    int   `json:"size"`
		ShardID *int  `json:"shard_id"`
	}
	c.expect("GET", fmt.Sprintf("/v1/cascades/%d/predict", id), nil, 200, &pred)
	if pred.Viral == nil {
		log.Fatalf("prediction for cascade %d carries no verdict", id)
	}
	return pred.Size, pred.ShardID
}

// checkDaemon: the process is healthy and ready with a predictor, takes
// one cascade over the wire and predicts it. With -wal-dir on the daemon
// this is the state the crash stage then kills.
func (c *client) checkDaemon() {
	c.expect("GET", "/healthz", nil, 200, nil)
	var ready struct {
		Predictor bool `json:"predictor"`
	}
	c.expect("GET", "/readyz", nil, 200, &ready)
	if !ready.Predictor {
		log.Fatal("daemon is ready but has no predictor: -cascades did not reach it")
	}
	var events []map[string]any
	for node := 1; node <= crashSize; node++ {
		events = append(events, map[string]any{"cascade": crashCascade, "node": node, "time": 0.1 * float64(node)})
	}
	c.ingest(events, crashSize)
	if size, _ := c.predictSize(crashCascade); size != crashSize {
		log.Fatalf("cascade %d predicted at size %d, want %d", crashCascade, size, crashSize)
	}
	fmt.Println("smoke: daemon ok (ingested and predicted one cascade)")
}

// checkPostCrash runs against a daemon restarted on a kill -9'd
// predecessor's -wal-dir. The cascade checkDaemon ingested only ever
// lived in that process's memory and its log: it must be served again,
// from replay, with the duplicate guard rebuilt.
func (c *client) checkPostCrash() {
	var m struct {
		WALEnabled  bool    `json:"wal_enabled"`
		WALReplayed float64 `json:"wal_replayed_records"`
	}
	c.expect("GET", "/metrics", nil, 200, &m)
	if !m.WALEnabled || m.WALReplayed < crashSize {
		log.Fatalf("expected >= %d replayed WAL records after the restart, got %+v", crashSize, m)
	}
	if size, _ := c.predictSize(crashCascade); size != crashSize {
		log.Fatalf("pre-crash cascade came back at size %d, want %d", size, crashSize)
	}
	c.ingest([]map[string]any{
		{"cascade": crashCascade, "node": 1, "time": 0.1},             // replayed already: refused
		{"cascade": crashCascade, "node": crashSize + 1, "time": 0.9}, // new: lands
	}, 1)
	if size, _ := c.predictSize(crashCascade); size != crashSize+1 {
		log.Fatalf("post-recovery cascade size %d, want %d", size, crashSize+1)
	}
	fmt.Println("smoke: post-crash ok (the cascade survived kill -9)")
}

// Cascade ids the fleet stage routes, and the ranking depths it asks
// for: the router serves a smaller k from its one cached ranking, so the
// outage pass asks past the healthy pass to force a fresh fan-out.
const (
	routeIDBase, routeIDCount = 41000, 30
	routeK, routePartialK     = 10, 29
)

type routerReady struct {
	Status        string `json:"status"`
	RingSize      int    `json:"ring_size"`
	ShardsHealthy int    `json:"shards_healthy"`
}

// ranking is the part of a /v1/influencers answer the fleet stage reads.
type ranking struct {
	Influencers   []json.RawMessage `json:"influencers"`
	Cached        bool              `json:"cached"`
	Partial       bool              `json:"partial"`
	MissingShards []string          `json:"missing_shards"`
}

// checkRoute: separate processes form one fleet. Every shard is healthy
// behind the router, one routed batch lands whole, its cascades answer
// from more than one shard process, and a ranking comes back complete.
func (c *client) checkRoute() {
	var hz struct {
		Role string `json:"role"`
	}
	c.expect("GET", "/healthz", nil, 200, &hz)
	if hz.Role != "router" {
		log.Fatalf("-route given but /healthz reports role %q", hz.Role)
	}
	var ready routerReady
	c.expect("GET", "/readyz", nil, 200, &ready)
	if ready.Status != "ready" || ready.RingSize < 2 || ready.ShardsHealthy != ready.RingSize {
		log.Fatalf("fleet not fully ready: %+v", ready)
	}
	var events []map[string]any
	for id := routeIDBase; id < routeIDBase+routeIDCount; id++ {
		events = append(events,
			map[string]any{"cascade": id, "node": 1, "time": 0.10},
			map[string]any{"cascade": id, "node": 2, "time": 0.25})
	}
	c.ingest(events, len(events))
	hit := map[int]bool{}
	for id := routeIDBase; id < routeIDBase+routeIDCount; id++ {
		size, shard := c.predictSize(id)
		if shard == nil || size != 2 {
			log.Fatalf("cascade %d through the router: size %d, shard %v", id, size, shard)
		}
		hit[*shard] = true
	}
	if len(hit) < 2 {
		log.Fatalf("all %d cascades landed on one shard process", routeIDCount)
	}
	var r ranking
	c.expect("GET", fmt.Sprintf("/v1/influencers?k=%d", routeK), nil, 200, &r)
	if r.Partial || len(r.Influencers) != routeK {
		log.Fatalf("healthy fleet ranked %d of %d influencers (partial=%v)", len(r.Influencers), routeK, r.Partial)
	}
	fmt.Printf("smoke: route ok (%d cascades over %d of %d shard processes, ranking whole)\n", routeIDCount, len(hit), ready.RingSize)
}

// checkRoutePartial runs after one shard process was kill -9'd: the
// router must notice (/readyz degraded) and a fresh ranking must still
// answer 200 — partial, naming the dead shard, never from the cache.
func (c *client) checkRoutePartial(missing string) {
	var ready routerReady
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		c.expect("GET", "/readyz", nil, 200, &ready)
		if ready.Status == "degraded" {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("router never noticed the dead shard: %+v", ready)
		}
	}
	if ready.ShardsHealthy != ready.RingSize-1 {
		log.Fatalf("degraded fleet reports %d healthy of %d, want %d", ready.ShardsHealthy, ready.RingSize, ready.RingSize-1)
	}
	var r ranking
	c.expect("GET", fmt.Sprintf("/v1/influencers?k=%d", routePartialK), nil, 200, &r)
	if !r.Partial || r.Cached || len(r.Influencers) == 0 || len(r.MissingShards) != 1 || r.MissingShards[0] != missing {
		log.Fatalf("ranking after %s was killed: partial=%v cached=%v missing_shards=%v, %d entries",
			missing, r.Partial, r.Cached, r.MissingShards, len(r.Influencers))
	}
	fmt.Printf("smoke: partial ok (%d survivors' entries, %s named missing)\n", len(r.Influencers), missing)
}
