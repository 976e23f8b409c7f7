package router

import (
	"expvar"
	"time"

	"viralcast/internal/httpkit"
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
	root := new(expvar.Map).Init()
	counter := func(name string) *expvar.Int { v := new(expvar.Int); root.Set(name, v); return v }
	submap := func(name string) *expvar.Map { v := new(expvar.Map).Init(); root.Set(name, v); return v }
	m := &Metrics{
		root:            root,
		requests:        submap("requests"),
		status:          submap("responses_by_status"),
		fanouts:         counter("fanouts"),
		partials:        counter("partial_results"),
		proxied:         counter("proxied_requests"),
		relayFailovers:  counter("relay_failovers"),
		shardErrors:     submap("shard_errors"),
		followerRetries: counter("follower_retries"),
		hedges:          counter("hedged_requests"),
		hedgeWins:       counter("hedge_wins"),
		cacheHits:       counter("cache_hits"),
		cacheMiss:       counter("cache_misses"),
		probes:          counter("probe_rounds"),
		failovers:       counter("router_failovers_total"),
	}
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
	m.status.Add(httpkit.StatusClass(status), 1)
}
