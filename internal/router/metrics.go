package router

import (
	"expvar"
	"fmt"
	"net/http"
	"time"
)

// Metrics is the router's observability surface: expvar-backed, kept
// off the global registry (same convention as internal/serve) so
// multiple routers in one process — tests, embedded uses — never
// collide on published names. Every key is always published, zero
// before first use, so dashboards see a stable shape.
type Metrics struct {
	root *expvar.Map

	requests *expvar.Map // per-endpoint request counts
	status   *expvar.Map // response counts by status class

	fanouts         *expvar.Int // scatter-gather rounds executed
	partials        *expvar.Int // degraded partial results served
	proxied         *expvar.Int // single-shard requests relayed
	relayFailovers  *expvar.Int // replicated reads that fell over to another shard
	shardErrors     *expvar.Map // transport failures by shard name
	followerRetries *expvar.Int // sequential retries against a follower
	hedges          *expvar.Int // hedged follower attempts launched
	hedgeWins       *expvar.Int // hedged attempts that answered first
	cacheHits       *expvar.Int
	cacheMiss       *expvar.Int
	probes          *expvar.Int // health-probe rounds completed
	failovers       *expvar.Int // automatic promotions completed
}

func newRouterMetrics(ringSize int, started time.Time, health func() []probeResult, det *detector) *Metrics {
	m := &Metrics{
		root:            new(expvar.Map).Init(),
		requests:        new(expvar.Map).Init(),
		status:          new(expvar.Map).Init(),
		fanouts:         new(expvar.Int),
		partials:        new(expvar.Int),
		proxied:         new(expvar.Int),
		relayFailovers:  new(expvar.Int),
		shardErrors:     new(expvar.Map).Init(),
		followerRetries: new(expvar.Int),
		hedges:          new(expvar.Int),
		hedgeWins:       new(expvar.Int),
		cacheHits:       new(expvar.Int),
		cacheMiss:       new(expvar.Int),
		probes:          new(expvar.Int),
		failovers:       new(expvar.Int),
	}
	m.root.Set("requests", m.requests)
	m.root.Set("responses_by_status", m.status)
	m.root.Set("fanouts", m.fanouts)
	m.root.Set("partial_results", m.partials)
	m.root.Set("proxied_requests", m.proxied)
	m.root.Set("relay_failovers", m.relayFailovers)
	m.root.Set("shard_errors", m.shardErrors)
	m.root.Set("follower_retries", m.followerRetries)
	m.root.Set("hedged_requests", m.hedges)
	m.root.Set("hedge_wins", m.hedgeWins)
	m.root.Set("cache_hits", m.cacheHits)
	m.root.Set("cache_misses", m.cacheMiss)
	m.root.Set("probe_rounds", m.probes)
	m.root.Set("ring_size", expvar.Func(func() any { return ringSize }))
	m.root.Set("uptime_seconds", expvar.Func(func() any {
		return time.Since(started).Seconds()
	}))
	m.root.Set("shards_healthy", expvar.Func(func() any {
		n := 0
		for _, pr := range health() {
			if pr.Healthy {
				n++
			}
		}
		return n
	}))
	m.root.Set("shard_health", expvar.Func(func() any {
		out := make(map[string]bool, ringSize)
		for i, pr := range health() {
			out[ShardName(i)] = pr.Healthy
		}
		return out
	}))
	// Supervision surface: how many automatic promotions the router has
	// driven, how many fenced nodes it is holding in quarantine, and
	// the fencing epoch it believes is current per shard chain.
	m.root.Set("router_failovers_total", m.failovers)
	m.root.Set("router_quarantined", expvar.Func(func() any {
		return det.quarantinedCount()
	}))
	m.root.Set("shard_epochs", expvar.Func(func() any {
		return det.epochMap()
	}))
	m.root.Set("failure_detector", expvar.Func(func() any {
		out := make(map[string]string, ringSize)
		for name, st := range det.statusMap() {
			out[name] = st.State
		}
		return out
	}))
	return m
}

func (m *Metrics) countCache(hit bool) {
	if hit {
		m.cacheHits.Add(1)
	} else {
		m.cacheMiss.Add(1)
	}
}

// observe records one completed request under its endpoint label (the
// router keeps no latency histogram; elapsed is unused).
func (m *Metrics) observe(endpoint string, status int, _ time.Duration) {
	m.requests.Add(endpoint, 1)
	m.status.Add(fmt.Sprintf("%dxx", status/100), 1)
}

// handler serves the metric tree as JSON.
func (m *Metrics) handler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintln(w, m.root.String())
}
