package router

import (
	"expvar"

	"viralcast/internal/httpkit"
)

// Metrics is the router's observability surface: the request tree it
// shares with internal/serve (httpkit.Metrics) plus the router's own
// counters and gauges.
type Metrics struct {
	httpkit.Metrics

	fanouts         *expvar.Int // scatter-gather rounds executed
	partials        *expvar.Int // degraded partial results served
	proxied         *expvar.Int // single-shard requests relayed
	relayFailovers  *expvar.Int // replicated reads that fell over to another shard
	shardErrors     *expvar.Map // transport failures by shard name
	followerRetries *expvar.Int // sequential retries against a follower
	cacheHits       *expvar.Int
	cacheMiss       *expvar.Int
	probes          *expvar.Int // health-probe rounds completed
	failovers       *expvar.Int // automatic promotions completed
}

func newRouterMetrics(ringSize int, health func() []probeResult, det *detector) *Metrics {
	base := httpkit.NewMetrics()
	m := &Metrics{
		Metrics:         base,
		fanouts:         base.Counter("fanouts"),
		partials:        base.Counter("partial_results"),
		proxied:         base.Counter("proxied_requests"),
		relayFailovers:  base.Counter("relay_failovers"),
		shardErrors:     base.Submap("shard_errors"),
		followerRetries: base.Counter("follower_retries"),
		cacheHits:       base.Counter("cache_hits"),
		cacheMiss:       base.Counter("cache_misses"),
		probes:          base.Counter("probe_rounds"),
		failovers:       base.Counter("router_failovers_total"),
	}
	m.Gauge("ring_size", func() any { return ringSize })
	m.Gauge("shards_healthy", func() any {
		n := 0
		for _, pr := range health() {
			if pr.Healthy {
				n++
			}
		}
		return n
	})
	m.Gauge("shard_health", func() any {
		out := make(map[string]bool, ringSize)
		for i, pr := range health() {
			out[ShardName(i)] = pr.Healthy
		}
		return out
	})
	// Supervision surface: how many automatic promotions the router has
	// driven, how many fenced nodes it is holding in quarantine, and
	// the fencing epoch it believes is current per shard chain.
	m.Gauge("router_quarantined", func() any { return det.quarantinedCount() })
	m.Gauge("shard_epochs", func() any { return det.epochMap() })
	m.Gauge("failure_detector", func() any {
		out := make(map[string]string, ringSize)
		for name, st := range det.statusMap() {
			out[name] = st.State
		}
		return out
	})
	return m
}

func (m *Metrics) countCache(hit bool) {
	if hit {
		m.cacheHits.Add(1)
	} else {
		m.cacheMiss.Add(1)
	}
}
