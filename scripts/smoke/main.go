// Command smoke is the CI client for the viralcastd smoke test: given a
// running daemon's base URL, it checks the health probes, streams a
// small cascade in, asserts a 200 prediction, exercises a hot reload,
// runs a small Monte Carlo campaign through POST /v1/simulate (schema
// validated field by field, repeat must hit the cache; with
// -simulate-cap N an over-cap campaign must 400), and verifies the
// metrics counters moved. Exits non-zero on the first failed
// expectation; scripts/ci.sh drives it against a daemon on a random
// port.
//
// With -wal it additionally asserts the write-ahead-log counters moved
// (the daemon must be running with -wal-dir). With -post-crash it runs
// the recovery half of the crash-replay test instead: against a daemon
// restarted on the WAL directory of a SIGKILLed predecessor, it checks
// the pre-crash cascade was replayed and is still predictable. With
// -overload it runs the admission-control check instead: against a
// daemon with a tiny compute limit (-max-inflight 1 -queue 2) it fires
// waves of concurrent seed selections and requires the overload
// contract — in-limit requests succeed within their deadline, the
// excess is shed with 429 + Retry-After, and honoring the hint gets a
// shed request through.
//
// With -follow it checks the replication-follower contract instead:
// wait for /readyz to report `"replication": "current"`, require the
// primary's smoke cascade to have replicated, require local ingestion
// to 409 with a machine-readable pointer at the primary, and require
// the repl_* metrics. With -post-promote it checks a freshly promoted
// follower: role primary, the replicated prefix still served, and
// ingestion (with the replayed duplicate guard intact) accepted again.
//
// With -route the base URL is a `viralcast route` front-end over a
// sharded fleet: the client ingests cascades through the router,
// asserts ring affinity (the same cascade id answers from the same
// shard on every request, via the prediction's shard_id field, and the
// ids spread over more than one shard), requires the merged top-k
// rankings to be byte-identical to the single unsharded daemon named
// by -oracle, and runs the simulate campaign through the router. With
// -route-partial SHARD the fleet has a freshly killed member: the
// router must report itself degraded and answer rankings as explicit
// partials naming that shard, uncached.
//
// With -post-failover the router has just auto-promoted a shard's
// follower: the fleet must be whole again (non-partial rankings,
// byte-identical to -oracle, a healed write path) with the supervision
// metrics recording exactly one failover, and with -zombie the
// restarted ex-primary must be fenced (409 on ingest and flush). The
// -wait-current and -wait-failover modes are sequencing barriers for
// ci.sh: the first blocks until a follower's replication stream is
// current, the second until the router reports a completed automatic
// failover.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	base := flag.String("base", "", "daemon base URL, e.g. http://127.0.0.1:43321 (required)")
	walOn := flag.Bool("wal", false, "daemon runs with -wal-dir: assert the wal_* metrics move")
	postCrash := flag.Bool("post-crash", false, "daemon was restarted after a hard kill: verify WAL replay instead of ingesting")
	overload := flag.Bool("overload", false, "daemon runs with a tiny -max-inflight: assert load shedding and Retry-After")
	simCap := flag.Int("simulate-cap", 0, "daemon runs with -simulate-max-trials N: assert an over-cap campaign is rejected with 400")
	follow := flag.Bool("follow", false, "daemon runs with -follow: wait for replication to be current and assert the follower contract")
	postPromote := flag.Bool("post-promote", false, "daemon is a freshly promoted follower: assert it serves the replicated prefix and ingests again")
	route := flag.Bool("route", false, "base is a `viralcast route` front-end: assert ring affinity and routed-vs-oracle byte identity")
	oracle := flag.String("oracle", "", "with -route: single unsharded daemon whose rankings the routed answers must match byte for byte")
	routePartial := flag.String("route-partial", "", "base is a router over a fleet with this shard freshly killed (e.g. shard-1): assert the degraded-partial contract")
	postFailover := flag.Bool("post-failover", false, "base is a router that just auto-failed-over a shard: assert non-partial answers, the supervision metrics, and (with -zombie) the fenced-zombie contract")
	zombie := flag.String("zombie", "", "with -post-failover: the restarted ex-primary's base URL; must report fenced and 409 ingest/flush")
	waitCurrent := flag.Bool("wait-current", false, "base is a replication follower: block until /readyz reports the stream current with zero lag, then exit")
	waitFailover := flag.Bool("wait-failover", false, "base is a router with -auto-failover: block until a shard reports a completed failover and the fleet is ready again, then exit")
	flag.Parse()
	if *base == "" {
		log.Fatal("smoke: -base is required")
	}
	client := &http.Client{Timeout: 30 * time.Second}
	waitUp(client, *base)

	if *route {
		checkRoute(client, *base, *oracle)
		fmt.Println("smoke: routed fleet checks passed")
		return
	}
	if *routePartial != "" {
		checkRoutePartial(client, *base, *routePartial)
		fmt.Println("smoke: routed partial-degradation checks passed")
		return
	}
	if *postFailover {
		checkPostFailover(client, *base, *oracle, *zombie)
		fmt.Println("smoke: post-failover checks passed")
		return
	}
	if *waitCurrent {
		checkWaitCurrent(client, *base)
		return
	}
	if *waitFailover {
		checkWaitFailover(client, *base)
		return
	}
	if *postCrash {
		checkPostCrash(client, *base)
		fmt.Println("smoke: post-crash recovery checks passed")
		return
	}
	if *overload {
		checkOverload(client, *base)
		fmt.Println("smoke: overload checks passed")
		return
	}
	if *follow {
		checkFollower(client, *base)
		fmt.Println("smoke: follower replication checks passed")
		return
	}
	if *postPromote {
		checkPostPromote(client, *base)
		fmt.Println("smoke: post-promotion checks passed")
		return
	}

	expect(client, "GET", *base+"/healthz", nil, 200, nil)
	var ready struct {
		Predictor bool `json:"predictor"`
	}
	expect(client, "GET", *base+"/readyz", nil, 200, &ready)
	if !ready.Predictor {
		log.Fatal("smoke: daemon is ready but has no predictor")
	}

	// Stream a fixture cascade: five early adopters, timestamps well
	// inside any sensible early cutoff.
	events := map[string]any{"events": []map[string]any{
		{"cascade": 31337, "node": 1, "time": 0.05},
		{"cascade": 31337, "node": 2, "time": 0.10},
		{"cascade": 31337, "node": 3, "time": 0.20},
		{"cascade": 31337, "node": 4, "time": 0.35},
		{"cascade": 31337, "node": 5, "time": 0.50},
	}}
	var ingested struct {
		Accepted int `json:"accepted"`
	}
	expect(client, "POST", *base+"/v1/events", events, 200, &ingested)
	if ingested.Accepted != 5 {
		log.Fatalf("smoke: ingested %d of 5 events", ingested.Accepted)
	}

	var pred struct {
		Viral      *bool   `json:"viral"`
		Margin     float64 `json:"margin"`
		Size       int     `json:"size"`
		Generation int     `json:"generation"`
	}
	expect(client, "GET", *base+"/v1/cascades/31337/predict", nil, 200, &pred)
	if pred.Viral == nil || pred.Size != 5 {
		log.Fatalf("smoke: malformed prediction: %+v", pred)
	}
	fmt.Printf("smoke: prediction ok (viral=%v margin=%+.3f, generation %d)\n",
		*pred.Viral, pred.Margin, pred.Generation)

	// Hot reload must succeed and bump the generation without breaking
	// the next prediction.
	var rl struct {
		Generation int `json:"generation"`
	}
	expect(client, "POST", *base+"/v1/reload", nil, 200, &rl)
	if rl.Generation <= pred.Generation {
		log.Fatalf("smoke: reload did not advance the generation (%d -> %d)",
			pred.Generation, rl.Generation)
	}
	expect(client, "GET", *base+"/v1/cascades/31337/predict", nil, 200, &pred)

	checkPredictBatch(client, *base, pred.Margin)
	checkSimulate(client, *base, *simCap)

	metrics := getMetrics(client, *base)
	if metrics.Requests["predict"] < 2 || metrics.Requests["events"] < 1 || metrics.Events != 5 {
		log.Fatalf("smoke: metrics did not move: %+v", metrics)
	}
	if metrics.ScenarioRuns < 1 || metrics.ScenarioTrials < 40 {
		log.Fatalf("smoke: scenario metrics did not move: runs=%v trials=%v",
			metrics.ScenarioRuns, metrics.ScenarioTrials)
	}
	if *walOn {
		if !metrics.WALEnabled {
			log.Fatal("smoke: -wal given but the daemon reports wal_enabled=false")
		}
		if metrics.WALAppends < 5 || metrics.WALFsyncs < 1 || metrics.WALBytes == 0 || metrics.WALSegments < 1 {
			log.Fatalf("smoke: wal metrics did not move: %+v", metrics)
		}
		fmt.Printf("smoke: wal ok (%v appends across %v fsyncs, %v bytes)\n",
			metrics.WALAppends, metrics.WALFsyncs, metrics.WALBytes)
	}
	fmt.Println("smoke: all checks passed")
	os.Exit(0)
}

// walMetrics is the /metrics subset the smoke checks read.
type walMetrics struct {
	Requests     map[string]float64 `json:"requests"`
	Events       float64            `json:"events_ingested"`
	WALEnabled   bool               `json:"wal_enabled"`
	WALAppends   float64            `json:"wal_appends"`
	WALFsyncs    float64            `json:"wal_fsyncs"`
	WALBytes     float64            `json:"wal_bytes"`
	WALReplayed  float64            `json:"wal_replayed_records"`
	WALSegments  float64            `json:"wal_segments"`
	OverloadShed map[string]float64 `json:"overload_shed"`
	Deadlines    float64            `json:"deadline_exceeded"`

	ReplRole       string  `json:"repl_role"`
	ReplState      string  `json:"repl_state"`
	ReplLagRecords float64 `json:"repl_lag_records"`
	ReplReconnects float64 `json:"repl_reconnects"`
	ReplPromotions float64 `json:"repl_promotions"`

	ScenarioRuns   float64 `json:"scenario_runs_total"`
	ScenarioTrials float64 `json:"scenario_trials_total"`
}

// waitUp gives a freshly exec'd daemon time to bind: connection-refused
// during startup is retried with jittered exponential backoff, bounded
// at ~15s overall. The jitter matters when ci.sh launches several
// daemons back to back — synchronized retry waves against a box that is
// already busy compiling are exactly how flaky smoke runs happen. Any
// HTTP status counts as "up" — readiness semantics belong to the
// callers.
func waitUp(client *http.Client, base string) {
	var lastErr error
	deadline := time.Now().Add(15 * time.Second)
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return
		}
		lastErr = err
		time.Sleep(jitteredBackoff(attempt, 50*time.Millisecond, time.Second))
	}
	log.Fatalf("smoke: daemon never came up at %s: %v", base, lastErr)
}

// jitteredBackoff is the retry schedule shared by waitUp and the
// replication-current wait: exponential from min, capped at max, with
// the upper half of each interval randomized.
func jitteredBackoff(attempt int, min, max time.Duration) time.Duration {
	d := min
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// checkFollower verifies the follower contract: replication converges
// to "current", the primary's smoke cascade is served read-only, local
// writes 409 with the primary's address, and the lag/reconnect metrics
// are published.
func checkFollower(client *http.Client, base string) {
	// A bootstrapping follower is healthy but not yet servable; wait for
	// /readyz to report the replication stream fully caught up.
	var ready struct {
		Role        string  `json:"role"`
		Replication string  `json:"replication"`
		ReadOnly    bool    `json:"read_only"`
		Primary     string  `json:"primary"`
		Lag         float64 `json:"replication_lag_records"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for attempt := 0; ; attempt++ {
		expect(client, "GET", base+"/readyz", nil, 200, &ready)
		if ready.Replication == "current" && ready.Lag == 0 {
			break
		}
		if !time.Now().Before(deadline) {
			log.Fatalf("smoke: follower never became current: %+v", ready)
		}
		time.Sleep(jitteredBackoff(attempt, 50*time.Millisecond, time.Second))
	}
	if ready.Role != "follower" || !ready.ReadOnly || ready.Primary == "" {
		log.Fatalf("smoke: follower readyz contract violated: %+v", ready)
	}

	// The cascade the primary smoke pass ingested must have replicated.
	var pred struct {
		Viral *bool `json:"viral"`
		Size  int   `json:"size"`
	}
	expect(client, "GET", base+"/v1/cascades/31337/predict", nil, 200, &pred)
	if pred.Viral == nil || pred.Size < 5 {
		log.Fatalf("smoke: primary's cascade not replicated: %+v", pred)
	}

	// Local writes are re-routed, not absorbed.
	events := map[string]any{"events": []map[string]any{
		{"cascade": 31337, "node": 9, "time": 0.9},
	}}
	var rejected struct {
		Reason  string `json:"reason"`
		Primary string `json:"primary"`
	}
	expect(client, "POST", base+"/v1/events", events, 409, &rejected)
	if rejected.Reason != "follower" || rejected.Primary == "" {
		log.Fatalf("smoke: follower ingest rejection not machine-readable: %+v", rejected)
	}

	m := getMetrics(client, base)
	if m.ReplRole != "follower" || m.ReplState != "current" {
		log.Fatalf("smoke: repl metrics wrong: role=%q state=%q", m.ReplRole, m.ReplState)
	}
	fmt.Printf("smoke: follower current (lag %v records, %v reconnects, primary %s)\n",
		m.ReplLagRecords, m.ReplReconnects, ready.Primary)
}

// checkPostPromote verifies a follower that was promoted after its
// primary was hard-killed: it is a writable primary now, still serves
// the replicated prefix, and the duplicate guard survived into the
// promoted store.
func checkPostPromote(client *http.Client, base string) {
	var ready struct {
		Role string `json:"role"`
	}
	expect(client, "GET", base+"/readyz", nil, 200, &ready)
	if ready.Role != "primary" {
		log.Fatalf("smoke: promoted node still reports role %q", ready.Role)
	}
	m := getMetrics(client, base)
	if m.ReplRole != "primary" || m.ReplPromotions < 1 {
		log.Fatalf("smoke: promoted metrics wrong: role=%q promotions=%v", m.ReplRole, m.ReplPromotions)
	}

	// The durable replicated prefix survived the failover.
	var pred struct {
		Viral *bool `json:"viral"`
		Size  int   `json:"size"`
	}
	expect(client, "GET", base+"/v1/cascades/31337/predict", nil, 200, &pred)
	if pred.Viral == nil || pred.Size < 5 {
		log.Fatalf("smoke: replicated prefix lost in promotion: %+v", pred)
	}
	before := pred.Size

	// Writable again: a duplicate of a replicated node is rejected, a
	// fresh node lands, and both go through the promoted node's own WAL.
	events := map[string]any{"events": []map[string]any{
		{"cascade": 31337, "node": 1, "time": 0.05},
		{"cascade": 31337, "node": 7, "time": 0.70},
	}}
	var ingested struct {
		Accepted int `json:"accepted"`
	}
	expect(client, "POST", base+"/v1/events", events, 200, &ingested)
	if ingested.Accepted != 1 {
		log.Fatalf("smoke: post-promotion ingest accepted %d, want 1 (dup rejected, new node in)", ingested.Accepted)
	}
	expect(client, "GET", base+"/v1/cascades/31337/predict", nil, 200, &pred)
	if pred.Size != before+1 {
		log.Fatalf("smoke: post-promotion cascade size %d, want %d", pred.Size, before+1)
	}
}

// checkOverload hammers a daemon configured with -max-inflight 1
// -queue 2 -request-timeout 2s: sixteen closed-loop workers issue seed
// selections back to back for two seconds (distinct horizons defeat the
// TTL cache, so every request is real compute). Sustained pressure — as
// opposed to a single burst, which a one-core box can absorb by
// scheduling handlers one at a time — keeps the class saturated, and
// the overload contract must hold: admitted requests keep succeeding
// inside their budget, the excess is shed with 429 + Retry-After,
// nothing hangs, and honoring the hint gets a shed request through.
func checkOverload(client *http.Client, base string) {
	expect(client, "GET", base+"/readyz", nil, 200, nil)

	const (
		workers  = 16
		duration = 2 * time.Second
		// The daemon's -request-timeout is 2s; everything — admitted,
		// queued, shed, or deadline-cut — must resolve well inside the
		// client's patience, or overload is hanging requests.
		maxElapsed = 15 * time.Second
	)
	var (
		mu                     sync.Mutex
		succeeded, shed, slow  int
		deadlineCut, failures  int
		firstProblem           string
		shedHorizon            float64
		shedRetryAfter         string
		horizonCounter, others int
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := &http.Client{Timeout: 30 * time.Second}
			for {
				mu.Lock()
				horizonCounter++
				h := 0.5 + 0.001*float64(horizonCounter)
				mu.Unlock()
				if !time.Now().Before(deadline) {
					return
				}
				start := time.Now()
				resp, err := wc.Get(fmt.Sprintf("%s/v1/seeds?k=120&horizon=%g", base, h))
				elapsed := time.Since(start)
				mu.Lock()
				if err != nil {
					failures++
					if firstProblem == "" {
						firstProblem = fmt.Sprintf("request error: %v", err)
					}
					mu.Unlock()
					continue
				}
				if elapsed > maxElapsed {
					slow++
					if firstProblem == "" {
						firstProblem = fmt.Sprintf("request took %v (status %d)", elapsed, resp.StatusCode)
					}
				}
				switch resp.StatusCode {
				case 200:
					succeeded++
				case 429:
					if ra := resp.Header.Get("Retry-After"); ra == "" {
						failures++
						if firstProblem == "" {
							firstProblem = "shed response missing Retry-After"
						}
					} else {
						shed++
						shedHorizon, shedRetryAfter = h, ra
					}
				case 503: // deadline exceeded while queued: bounded, acceptable
					deadlineCut++
				default:
					others++
					if firstProblem == "" {
						firstProblem = fmt.Sprintf("unexpected status %d", resp.StatusCode)
					}
				}
				mu.Unlock()
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	if failures > 0 || slow > 0 || others > 0 {
		log.Fatalf("smoke: overload contract violated (%d failures, %d slow, %d unexpected): %s",
			failures, slow, others, firstProblem)
	}
	if succeeded == 0 {
		log.Fatal("smoke: no request succeeded under overload — shedding is not protecting admitted work")
	}
	if shed == 0 {
		log.Fatalf("smoke: %d workers hammering -max-inflight 1 for %v never shed (%d ok, %d deadline-cut)",
			workers, duration, succeeded, deadlineCut)
	}

	// Honoring the hint must work: back off as told, then retry the last
	// shed horizon until it goes through (expect retries 429s itself).
	secs, err := strconv.Atoi(shedRetryAfter)
	if err != nil || secs < 1 {
		log.Fatalf("smoke: unparseable Retry-After %q", shedRetryAfter)
	}
	time.Sleep(time.Duration(secs) * time.Second)
	expect(client, "GET", fmt.Sprintf("%s/v1/seeds?k=120&horizon=%g", base, shedHorizon), nil, 200, nil)

	m := getMetrics(client, base)
	if m.OverloadShed["compute"] < 1 {
		log.Fatalf("smoke: overload_shed metric did not move: %+v", m.OverloadShed)
	}
	fmt.Printf("smoke: overload ok (%d succeeded, %d shed with Retry-After, %d deadline-cut, overload_shed=%v)\n",
		succeeded, shed, deadlineCut, m.OverloadShed)
}

// checkRoute exercises a healthy routed fleet end to end: every shard
// up, ingestion split by the ring, cascade-scoped reads pinned to one
// shard per id (and spreading over several shards across ids), the
// merged rankings byte-identical to the unsharded oracle, and the
// Monte Carlo campaign relayed with its cache semantics intact.
func checkRoute(client *http.Client, base, oracle string) {
	var hz struct {
		Role string `json:"role"`
	}
	expect(client, "GET", base+"/healthz", nil, 200, &hz)
	if hz.Role != "router" {
		log.Fatalf("smoke: -route given but /healthz reports role %q, not a router", hz.Role)
	}
	var ready struct {
		Status        string `json:"status"`
		RingSize      int    `json:"ring_size"`
		ShardsHealthy int    `json:"shards_healthy"`
	}
	expect(client, "GET", base+"/readyz", nil, 200, &ready)
	if ready.Status != "ready" || ready.RingSize < 2 || ready.ShardsHealthy != ready.RingSize {
		log.Fatalf("smoke: fleet not fully ready: %+v", ready)
	}

	// One small cascade per routed id, ingested through the router in a
	// single batch that the ring splits across the shards.
	const idBase, idCount = 41000, 30
	evs := make([]map[string]any, 0, 3*idCount)
	for i := 0; i < idCount; i++ {
		id := idBase + i
		evs = append(evs,
			map[string]any{"cascade": id, "node": 1, "time": 0.10},
			map[string]any{"cascade": id, "node": 2, "time": 0.25},
			map[string]any{"cascade": id, "node": 3, "time": 0.40},
		)
	}
	var ingested struct {
		Accepted int  `json:"accepted"`
		Partial  bool `json:"partial"`
	}
	expect(client, "POST", base+"/v1/events", map[string]any{"events": evs}, 200, &ingested)
	if ingested.Partial || ingested.Accepted != len(evs) {
		log.Fatalf("smoke: routed ingest accepted %d of %d (partial=%v)",
			ingested.Accepted, len(evs), ingested.Partial)
	}

	// Ring affinity: the shard_id on a prediction names the shard that
	// answered. The same cascade id must answer from the same shard on
	// every request, and the ids must not all pile onto one shard.
	shardOf := make(map[int]int, idCount)
	hit := make(map[int]bool)
	epochOf := make(map[int]float64) // shard id -> fencing epoch seen on predictions
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < idCount; i++ {
			id := idBase + i
			var pred struct {
				Size    int      `json:"size"`
				ShardID *int     `json:"shard_id"`
				Epoch   *float64 `json:"epoch"`
			}
			expect(client, "GET", fmt.Sprintf("%s/v1/cascades/%d/predict", base, id), nil, 200, &pred)
			if pred.ShardID == nil {
				log.Fatalf("smoke: prediction for cascade %d carries no shard_id — daemons not sharded?", id)
			}
			if pred.Epoch == nil {
				log.Fatalf("smoke: prediction for cascade %d carries no fencing epoch", id)
			}
			if prev, ok := epochOf[*pred.ShardID]; ok && prev != *pred.Epoch {
				log.Fatalf("smoke: shard %d answered at epoch %v then %v — the epoch moved mid-run",
					*pred.ShardID, prev, *pred.Epoch)
			}
			epochOf[*pred.ShardID] = *pred.Epoch
			if *pred.ShardID < 0 || *pred.ShardID >= ready.RingSize {
				log.Fatalf("smoke: cascade %d answered by shard %d outside the ring [0, %d)",
					id, *pred.ShardID, ready.RingSize)
			}
			if pass == 0 {
				shardOf[id] = *pred.ShardID
				hit[*pred.ShardID] = true
			} else if *pred.ShardID != shardOf[id] {
				log.Fatalf("smoke: cascade %d moved from shard %d to shard %d between requests",
					id, shardOf[id], *pred.ShardID)
			}
			if pred.Size != 3 {
				log.Fatalf("smoke: cascade %d has size %d on its shard, want 3", id, pred.Size)
			}
		}
	}
	if len(hit) < 2 {
		log.Fatalf("smoke: all %d cascade ids landed on one shard — the ring is not spreading ownership", idCount)
	}

	// The merged rankings must be byte-identical to a single unsharded
	// daemon over the same model: same scores, same order, same bytes.
	if oracle != "" {
		for _, q := range []struct{ path, field string }{
			{"/v1/influencers?k=10", "influencers"},
			{"/v1/influencers?k=25", "influencers"},
			{"/v1/seeds?k=4", "seeds"},
		} {
			routed := rawJSONField(client, base+q.path, q.field)
			direct := rawJSONField(client, oracle+q.path, q.field)
			if !bytes.Equal(routed, direct) {
				log.Fatalf("smoke: routed %s diverges from the oracle\nrouted: %s\noracle: %s",
					q.path, routed, direct)
			}
		}
		fmt.Println("smoke: routed rankings byte-identical to the oracle")
	}

	// The fencing-epoch triangle: the epoch each shard stamps on its
	// predictions must equal what the router's failure detector reports
	// on /readyz and what the shard_epochs gauge publishes on /metrics.
	// A disagreement means the router is routing by a different view of
	// the fleet's history than the shards are serving under.
	var detReady struct {
		Detector map[string]struct {
			Epoch float64 `json:"epoch"`
		} `json:"failure_detector"`
	}
	expect(client, "GET", base+"/readyz", nil, 200, &detReady)
	var em struct {
		ShardEpochs map[string]float64 `json:"shard_epochs"`
	}
	expect(client, "GET", base+"/metrics", nil, 200, &em)
	for sid, epoch := range epochOf {
		name := fmt.Sprintf("shard-%d", sid)
		det, ok := detReady.Detector[name]
		if !ok {
			log.Fatalf("smoke: router /readyz failure_detector has no entry for %s", name)
		}
		if det.Epoch != epoch {
			log.Fatalf("smoke: %s predictions at epoch %v but the failure detector reports %v", name, epoch, det.Epoch)
		}
		if got, ok := em.ShardEpochs[name]; !ok || got != epoch {
			log.Fatalf("smoke: %s predictions at epoch %v but shard_epochs reports %v (present=%v)", name, epoch, got, ok)
		}
	}

	checkSimulate(client, base, 0)
	fmt.Printf("smoke: route ok (%d cascades pinned across %d of %d shards, epochs consistent)\n",
		idCount, len(hit), ready.RingSize)
}

// checkPostFailover runs against a router that just auto-promoted a
// shard's follower: the fleet must be whole again — ready status,
// non-partial rankings (byte-identical to the oracle when given), a
// healed write path — with the supervision metrics recording exactly
// what happened; and the restarted zombie ex-primary (-zombie) must be
// fenced: readyz says so, and ingest and flush both bounce 409.
func checkPostFailover(client *http.Client, base, oracle, zombie string) {
	// The detector converges one probe round behind the promote.
	var ready struct {
		Status   string `json:"status"`
		Detector map[string]struct {
			State     string  `json:"state"`
			Epoch     float64 `json:"epoch"`
			Failovers float64 `json:"failovers"`
		} `json:"failure_detector"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for attempt := 0; ; attempt++ {
		expect(client, "GET", base+"/readyz", nil, 200, &ready)
		if ready.Status == "ready" {
			break
		}
		if !time.Now().Before(deadline) {
			log.Fatalf("smoke: fleet never healed after the failover: %+v", ready)
		}
		time.Sleep(jitteredBackoff(attempt, 50*time.Millisecond, time.Second))
	}
	promoted := ""
	for name, det := range ready.Detector {
		if det.Failovers >= 1 {
			promoted = name
			if det.State != "healthy" || det.Epoch < 1 {
				log.Fatalf("smoke: failed-over %s not recovered: %+v", name, det)
			}
		}
	}
	if promoted == "" {
		log.Fatalf("smoke: no shard reports a completed failover: %+v", ready.Detector)
	}

	var m struct {
		Failovers   float64            `json:"router_failovers_total"`
		Quarantined float64            `json:"router_quarantined"`
		ShardEpochs map[string]float64 `json:"shard_epochs"`
	}
	expect(client, "GET", base+"/metrics", nil, 200, &m)
	if m.Failovers < 1 || m.Quarantined < 1 {
		log.Fatalf("smoke: supervision metrics did not move: failovers=%v quarantined=%v", m.Failovers, m.Quarantined)
	}
	if m.ShardEpochs[promoted] < 1 {
		log.Fatalf("smoke: %s failed over but its epoch gauge reads %v", promoted, m.ShardEpochs[promoted])
	}

	// Non-partial answers: the router caches one ranking and serves any
	// smaller k from it, so ask past the largest k of this ci run (the
	// -route pass stops at 25) — the answer cannot come from a
	// pre-failover cache entry.
	var resp struct {
		Influencers []json.RawMessage `json:"influencers"`
		Partial     bool              `json:"partial"`
	}
	expect(client, "GET", base+"/v1/influencers?k=33", nil, 200, &resp)
	if resp.Partial || len(resp.Influencers) == 0 {
		log.Fatalf("smoke: post-failover ranking partial=%v with %d entries — the fleet did not heal",
			resp.Partial, len(resp.Influencers))
	}
	if oracle != "" {
		routed := rawJSONField(client, base+"/v1/influencers?k=33", "influencers")
		direct := rawJSONField(client, oracle+"/v1/influencers?k=33", "influencers")
		if !bytes.Equal(routed, direct) {
			log.Fatalf("smoke: post-failover rankings diverge from the oracle\nrouted: %s\noracle: %s", routed, direct)
		}
	}

	// The write path is healed: a fresh batch lands whole.
	var ingested struct {
		Accepted int  `json:"accepted"`
		Partial  bool `json:"partial"`
	}
	events := map[string]any{"events": []map[string]any{
		{"cascade": 52000, "node": 1, "time": 0.1},
		{"cascade": 52001, "node": 1, "time": 0.1},
		{"cascade": 52002, "node": 1, "time": 0.1},
	}}
	expect(client, "POST", base+"/v1/events", events, 200, &ingested)
	if ingested.Partial || ingested.Accepted != 3 {
		log.Fatalf("smoke: post-failover ingest accepted %d of 3 (partial=%v)", ingested.Accepted, ingested.Partial)
	}

	if zombie != "" {
		// The router's observation probes fence the zombie; give it a
		// few rounds to latch.
		var zr struct {
			Fenced bool `json:"fenced"`
		}
		deadline := time.Now().Add(30 * time.Second)
		for attempt := 0; ; attempt++ {
			expect(client, "GET", zombie+"/readyz", nil, 200, &zr)
			if zr.Fenced {
				break
			}
			if !time.Now().Before(deadline) {
				log.Fatalf("smoke: restarted zombie %s never latched the fence", zombie)
			}
			time.Sleep(jitteredBackoff(attempt, 50*time.Millisecond, time.Second))
		}
		var rej struct {
			Reason string `json:"reason"`
		}
		expect(client, "POST", zombie+"/v1/events",
			map[string]any{"cascade": 52000, "node": 9, "time": 0.9}, 409, &rej)
		if rej.Reason != "fenced" {
			log.Fatalf("smoke: zombie ingest rejection reason %q, want fenced", rej.Reason)
		}
		expect(client, "POST", zombie+"/v1/flush", nil, 409, &rej)
		if rej.Reason != "fenced" {
			log.Fatalf("smoke: zombie flush rejection reason %q, want fenced", rej.Reason)
		}
		fmt.Printf("smoke: zombie %s is fenced (ingest and flush 409)\n", zombie)
	}
	fmt.Printf("smoke: failover ok (%s promoted at epoch %v, %v quarantined)\n",
		promoted, m.ShardEpochs[promoted], m.Quarantined)
}

// checkWaitCurrent blocks until a replication follower reports its
// stream current with zero lag — the precondition for the supervised
// failover, whose MaxPromoteLag=0 default refuses to promote a
// follower that has not applied every durably-acknowledged record.
// It is a barrier for scripts, not a contract check: ci.sh calls it
// between the routed ingest and the SIGKILL so the chaos stage never
// races the replication stream.
func checkWaitCurrent(client *http.Client, base string) {
	var ready struct {
		Replication string  `json:"replication"`
		Lag         float64 `json:"replication_lag_records"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for attempt := 0; ; attempt++ {
		expect(client, "GET", base+"/readyz", nil, 200, &ready)
		if ready.Replication == "current" && ready.Lag == 0 {
			fmt.Printf("smoke: follower %s is current (lag 0)\n", base)
			return
		}
		if !time.Now().Before(deadline) {
			log.Fatalf("smoke: follower %s never became current: %+v", base, ready)
		}
		time.Sleep(jitteredBackoff(attempt, 50*time.Millisecond, time.Second))
	}
}

// checkWaitFailover blocks until a router with -auto-failover reports
// a completed promotion (some shard's failovers counter moved) and the
// fleet ready again. ci.sh uses it to sequence the chaos stage: the
// zombie ex-primary must not be restarted on its old address until the
// supervisor has actually failed over, or the resurrected node would
// answer probes healthily and pre-empt the failover it is supposed to
// be fenced by.
func checkWaitFailover(client *http.Client, base string) {
	var ready struct {
		Status   string `json:"status"`
		Detector map[string]struct {
			State     string  `json:"state"`
			Epoch     float64 `json:"epoch"`
			Failovers float64 `json:"failovers"`
		} `json:"failure_detector"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for attempt := 0; ; attempt++ {
		expect(client, "GET", base+"/readyz", nil, 200, &ready)
		for name, det := range ready.Detector {
			if det.Failovers >= 1 && det.State == "healthy" && ready.Status == "ready" {
				fmt.Printf("smoke: router failed over %s (epoch %v), fleet ready\n", name, det.Epoch)
				return
			}
		}
		if !time.Now().Before(deadline) {
			log.Fatalf("smoke: router never completed an automatic failover: %+v", ready)
		}
		time.Sleep(jitteredBackoff(attempt, 50*time.Millisecond, time.Second))
	}
}

// checkRoutePartial runs against a router whose fleet just lost the
// named shard to a SIGKILL: /readyz must converge to "degraded", and a
// fresh ranking must still answer 200 — as an explicit partial naming
// the dead shard, never from the cache.
func checkRoutePartial(client *http.Client, base, missing string) {
	var ready struct {
		Status        string `json:"status"`
		RingSize      int    `json:"ring_size"`
		ShardsHealthy int    `json:"shards_healthy"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for attempt := 0; ; attempt++ {
		expect(client, "GET", base+"/readyz", nil, 200, &ready)
		if ready.Status == "degraded" {
			break
		}
		if !time.Now().Before(deadline) {
			log.Fatalf("smoke: router never noticed the dead shard: %+v", ready)
		}
		time.Sleep(jitteredBackoff(attempt, 50*time.Millisecond, time.Second))
	}
	if ready.ShardsHealthy != ready.RingSize-1 {
		log.Fatalf("smoke: degraded fleet reports %d healthy of %d, want %d",
			ready.ShardsHealthy, ready.RingSize, ready.RingSize-1)
	}

	// The router caches one ranking and serves any smaller k from it, so
	// ask past the largest k of this ci run (the -route pass stops at
	// 25): the answer cannot come from the router's pre-outage cache.
	var resp struct {
		Influencers   []json.RawMessage `json:"influencers"`
		Cached        bool              `json:"cached"`
		Partial       bool              `json:"partial"`
		MissingShards []string          `json:"missing_shards"`
	}
	expect(client, "GET", base+"/v1/influencers?k=29", nil, 200, &resp)
	if !resp.Partial {
		log.Fatalf("smoke: ranking after a shard SIGKILL is not marked partial: %+v", resp)
	}
	if resp.Cached {
		log.Fatal("smoke: a partial ranking claims to be cached")
	}
	found := false
	for _, name := range resp.MissingShards {
		if name == missing {
			found = true
		}
	}
	if !found {
		log.Fatalf("smoke: missing_shards %v does not name the killed %s", resp.MissingShards, missing)
	}
	if len(resp.Influencers) == 0 {
		log.Fatal("smoke: partial ranking is empty — surviving shards' stripes were lost")
	}

	// The router's own metrics must record the degradation.
	var m struct {
		Partials      float64            `json:"partial_results"`
		ShardsHealthy float64            `json:"shards_healthy"`
		ShardHealth   map[string]bool    `json:"shard_health"`
		ShardErrors   map[string]float64 `json:"shard_errors"`
	}
	expect(client, "GET", base+"/metrics", nil, 200, &m)
	if m.Partials < 1 {
		log.Fatalf("smoke: partial_results metric did not move: %+v", m)
	}
	if healthy, ok := m.ShardHealth[missing]; !ok || healthy {
		log.Fatalf("smoke: shard_health does not mark %s down: %v", missing, m.ShardHealth)
	}
	fmt.Printf("smoke: partial ok (%d survivors answered, %s named missing, partial_results=%v)\n",
		len(resp.Influencers), missing, m.Partials)
}

// rawJSONField GETs a URL and returns the named top-level field's raw
// bytes, for exact byte-identity comparisons between envelopes whose
// sibling fields (cached, shard identity) legitimately differ.
func rawJSONField(client *http.Client, url, field string) []byte {
	resp, err := client.Get(url)
	if err != nil {
		log.Fatalf("smoke: GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("smoke: reading %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("smoke: GET %s = %d: %s", url, resp.StatusCode, body)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		log.Fatalf("smoke: undecodable body from %s: %v", url, err)
	}
	raw, ok := doc[field]
	if !ok {
		log.Fatalf("smoke: %s response has no %q field: %s", url, field, body)
	}
	return raw
}

// checkSimulate POSTs a small Monte Carlo campaign to /v1/simulate and
// validates the response schema field by field — a mismatch names the
// exact offending field path instead of a generic decode error. The
// identical spec is then re-POSTed and must come back from the
// generation-keyed cache. With cap > 0 (the daemon runs with
// -simulate-max-trials) an over-cap campaign must be rejected with a
// 400 that names the limit, before any compute is admitted.
func checkSimulate(client *http.Client, base string, maxTrials int) {
	spec := map[string]any{
		"seed_sets": []map[string]any{
			{"name": "a", "nodes": []int{1, 2, 3}},
			{"name": "b", "nodes": []int{10, 11, 12}},
		},
		"trials":  20,
		"horizon": 2.0,
		"seed":    7,
	}
	var sim map[string]any
	expect(client, "POST", base+"/v1/simulate", spec, 200, &sim)
	if err := checkSchema(sim, map[string]string{
		"trials":            "number",
		"horizon":           "number",
		"seed":              "number",
		"total_trials":      "number",
		"cached":            "bool",
		"generation":        "number",
		"sets":              "array",
		"sets.0.name":       "string",
		"sets.0.seeds":      "array",
		"sets.0.reach.mean": "number",
		"sets.0.reach.p50":  "number",
		"sets.0.reach.p90":  "number",
		"sets.0.reach.p99":  "number",
		"sets.0.reach.min":  "number",
		"sets.0.reach.max":  "number",
		"sets.1.name":       "string",
		"win_rate":          "array",
		"win_rate.0.1":      "number",
	}); err != nil {
		log.Fatalf("smoke: /v1/simulate schema: %v", err)
	}
	if got, _ := jsonPath(sim, "total_trials"); got != float64(40) {
		log.Fatalf("smoke: /v1/simulate total_trials = %v, want 40", got)
	}

	var again map[string]any
	expect(client, "POST", base+"/v1/simulate", spec, 200, &again)
	if cached, _ := jsonPath(again, "cached"); cached != true {
		log.Fatal("smoke: repeated identical campaign spec was not served from the cache")
	}

	if maxTrials > 0 {
		over := map[string]any{
			"seed_sets": []map[string]any{{"nodes": []int{1}}},
			"trials":    maxTrials + 1,
			"horizon":   1.0,
		}
		var rej struct {
			Error string `json:"error"`
		}
		expect(client, "POST", base+"/v1/simulate", over, 400, &rej)
		if !strings.Contains(rej.Error, strconv.Itoa(maxTrials)) {
			log.Fatalf("smoke: over-cap rejection does not name the limit %d: %q", maxTrials, rej.Error)
		}
	}
	fmt.Println("smoke: simulate ok (schema valid, cache hit on repeat)")
}

// checkSchema requires each dot-separated path in want to resolve to
// the given JSON kind ("number", "string", "bool", "array", "object").
// The returned error names the first offending field path, checked in
// sorted order so failures are deterministic.
func checkSchema(doc any, want map[string]string) error {
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		v, err := jsonPath(doc, p)
		if err != nil {
			return err
		}
		kind := "null"
		switch v.(type) {
		case float64:
			kind = "number"
		case string:
			kind = "string"
		case bool:
			kind = "bool"
		case []any:
			kind = "array"
		case map[string]any:
			kind = "object"
		}
		if kind != want[p] {
			return fmt.Errorf("%s: is %s, want %s", p, kind, want[p])
		}
	}
	return nil
}

// jsonPath descends a dot-separated path through a decoded JSON
// document; numeric segments index arrays ("win_rate.0.1" is
// doc["win_rate"][0][1]). A miss reports the exact path prefix at
// fault — `sets.0.reach.p90: field missing` — so schema failures point
// at the offending field rather than the whole body.
func jsonPath(doc any, path string) (any, error) {
	cur := doc
	segs := strings.Split(path, ".")
	for i, seg := range segs {
		at := strings.Join(segs[:i+1], ".")
		switch v := cur.(type) {
		case map[string]any:
			next, ok := v[seg]
			if !ok {
				return nil, fmt.Errorf("%s: field missing", at)
			}
			cur = next
		case []any:
			idx, err := strconv.Atoi(seg)
			if err != nil {
				return nil, fmt.Errorf("%s: %q indexes an array but is not a number", at, seg)
			}
			if idx < 0 || idx >= len(v) {
				return nil, fmt.Errorf("%s: index %d out of range (array has %d elements)", at, idx, len(v))
			}
			cur = v[idx]
		default:
			return nil, fmt.Errorf("%s: cannot descend into %T", at, cur)
		}
	}
	return cur, nil
}

func getMetrics(client *http.Client, base string) walMetrics {
	var m walMetrics
	expect(client, "GET", base+"/metrics", nil, 200, &m)
	return m
}

// checkPostCrash verifies a daemon restarted on a hard-killed
// predecessor's WAL directory: the cascade the first smoke pass
// ingested (and that only ever lived in the predecessor's memory) must
// have been replayed from the log and still answer predictions.
func checkPostCrash(client *http.Client, base string) {
	expect(client, "GET", base+"/healthz", nil, 200, nil)
	expect(client, "GET", base+"/readyz", nil, 200, nil)
	m := getMetrics(client, base)
	if !m.WALEnabled || m.WALReplayed < 5 {
		log.Fatalf("smoke: expected >=5 replayed WAL records after restart, got %+v", m)
	}
	var pred struct {
		Viral *bool `json:"viral"`
		Size  int   `json:"size"`
	}
	expect(client, "GET", base+"/v1/cascades/31337/predict", nil, 200, &pred)
	if pred.Viral == nil || pred.Size != 5 {
		log.Fatalf("smoke: pre-crash cascade not recovered: %+v", pred)
	}
	// Recovered state must accept further ingestion, and replay must
	// have rebuilt the SI duplicate guard: re-sending an already
	// replayed node is rejected, only the fresh one lands.
	events := map[string]any{"events": []map[string]any{
		{"cascade": 31337, "node": 1, "time": 0.05},
		{"cascade": 31337, "node": 6, "time": 0.60},
	}}
	var ingested struct {
		Accepted int `json:"accepted"`
	}
	expect(client, "POST", base+"/v1/events", events, 200, &ingested)
	if ingested.Accepted != 1 {
		log.Fatalf("smoke: post-recovery ingest accepted %d, want 1 (dup node rejected, new node in)", ingested.Accepted)
	}
	expect(client, "GET", base+"/v1/cascades/31337/predict", nil, 200, &pred)
	if pred.Size != 6 {
		log.Fatalf("smoke: post-recovery cascade size %d, want 6", pred.Size)
	}
}

// checkPredictBatch verifies the batched data plane against the single
// predict the main pass just made: the same cascade in a batch must
// answer the same margin (both decoded from their wire strings, so
// equality here means the strings agreed), duplicates within a batch
// must agree with each other, and an unknown id must fail only its own
// slot while the envelope stays 200.
func checkPredictBatch(client *http.Client, base string, singleMargin float64) {
	var batch struct {
		Results []struct {
			Result *struct {
				Cascade int     `json:"cascade"`
				Margin  float64 `json:"margin"`
				Size    int     `json:"size"`
			} `json:"result"`
			Status int    `json:"status"`
			Error  string `json:"error"`
		} `json:"results"`
		Count  int `json:"count"`
		Errors int `json:"errors"`
	}
	ids := []int{31337, 887766, 31337}
	expect(client, "POST", base+"/v1/predict:batch", map[string]any{"cascades": ids}, 200, &batch)
	if batch.Count != len(ids) || len(batch.Results) != len(ids) || batch.Errors != 1 {
		log.Fatalf("smoke: predict:batch envelope wrong (count=%d results=%d errors=%d, want %d/%d/1)",
			batch.Count, len(batch.Results), batch.Errors, len(ids), len(ids))
	}
	for _, i := range []int{0, 2} {
		r := batch.Results[i]
		if r.Result == nil {
			log.Fatalf("smoke: predict:batch slot %d failed: %d %q", i, r.Status, r.Error)
		}
		if r.Result.Cascade != 31337 || r.Result.Size != 5 || r.Result.Margin != singleMargin {
			log.Fatalf("smoke: predict:batch slot %d diverges from the single predict: %+v (single margin %v)",
				i, r.Result, singleMargin)
		}
	}
	if miss := batch.Results[1]; miss.Result != nil || miss.Status != 404 || miss.Error == "" {
		log.Fatalf("smoke: predict:batch unknown-id slot not a per-item 404: %+v", miss)
	}
	// An over-limit batch (and a malformed body) must be a request-level
	// 400 that never touches the per-item plane.
	expect(client, "POST", base+"/v1/predict:batch", map[string]any{"cascades": []int{}}, 400, nil)
	fmt.Println("smoke: predict:batch ok (per-item slots, batch margin == single margin)")
}

// expect performs one request and requires the given status, optionally
// decoding the JSON response. A 429 that was not the wanted status is
// the daemon shedding load; expect is a polite client, so it honors the
// Retry-After hint (capped at 2s per attempt) a bounded number of times
// before giving up.
func expect(client *http.Client, method, url string, body any, wantStatus int, out any) {
	var encoded []byte
	if body != nil {
		var err error
		if encoded, err = json.Marshal(body); err != nil {
			log.Fatalf("smoke: encoding body for %s: %v", url, err)
		}
	}
	const maxAttempts = 5
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(encoded))
		if err != nil {
			log.Fatalf("smoke: %v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			log.Fatalf("smoke: %s %s: %v", method, url, err)
		}
		if resp.StatusCode == http.StatusTooManyRequests && wantStatus != http.StatusTooManyRequests && attempt < maxAttempts {
			backoff := time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 1 {
				backoff = time.Duration(secs) * time.Second
			}
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(backoff)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			var e map[string]any
			json.NewDecoder(resp.Body).Decode(&e)
			log.Fatalf("smoke: %s %s = %d, want %d (%v)", method, url, resp.StatusCode, wantStatus, e)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				log.Fatalf("smoke: %s %s: undecodable response: %v", method, url, err)
			}
		}
		return
	}
}
