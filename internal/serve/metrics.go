package serve

import (
	"expvar"
	"sort"
	"sync"
	"time"

	"viralcast/internal/httpkit"
	"viralcast/internal/repl"
	"viralcast/internal/wal"
)

// latencyBuckets are the upper bounds (milliseconds) of the request
// latency histogram and latencyKeys their metric names, formatted once;
// the last bucket, "inf", is unbounded.
var (
	latencyBuckets = [...]float64{1, 5, 25, 100, 500}
	latencyKeys    = [...]string{"le_1ms", "le_5ms", "le_25ms", "le_100ms", "le_500ms"}
)

// Metrics is the daemon's observability surface, backed by expvar types
// but kept off the global expvar registry so multiple servers (tests,
// embedded uses) never collide on published names. The /metrics endpoint
// renders the whole tree as JSON via expvar.Map's String method.
type Metrics struct {
	root *expvar.Map

	requests      *expvar.Map // per-endpoint request counts
	status        *expvar.Map // response counts by status class (2xx/4xx/5xx)
	latency       *expvar.Map // latency histogram buckets, all endpoints
	events        *expvar.Int // total ingested infection events
	cacheHits     *expvar.Int
	cacheMiss     *expvar.Int
	reloads       *expvar.Int // successful model reloads (incl. flush swaps)
	flushes       *expvar.Int // background flush passes that refined the model
	shed          *expvar.Map // 429s by route class (admission queue full)
	deadlines     *expvar.Int // 503s from an exhausted request budget
	readOnly      *expvar.Int // ingestion requests rejected while degraded
	flushFailures *expvar.Int // failed flush/retrain passes (stale gauge source)
	walRecoveries *expvar.Int // successful degraded-mode WAL reopenings

	followerRejects *expvar.Int // ingest/flush requests 409ed on a follower
	replUnservable  *expvar.Int // data-plane requests 503ed while not servable
	promotions      *expvar.Int // follower→primary promotions
	fenceRejects    *expvar.Int // ingest/flush/promote requests 409ed by the fencing epoch

	scenarioTrials *expvar.Int  // Monte Carlo trials completed by /v1/simulate
	scenarioRuns   *expvar.Int  // scenario batches computed (cache misses that ran)
	scenarioActive *expvar.Int  // scenario batches running right now (gauge)
	scenarioLat    *latencyRing // recent scenario batch latencies (p50/p99)
}

// latencyRing keeps the most recent observations of a sparse, possibly
// long-running operation so /metrics can report live quantiles. The
// bucketed histogram above is wrong for this: scenario batches span
// microseconds (tiny cached models) to seconds (4k trials on a big
// universe), and the interesting question is "what are batches costing
// lately", not "since process start".
type latencyRing struct {
	mu  sync.Mutex
	buf [128]float64 // milliseconds
	n   uint64       // total observations ever; buf index is n % len
}

func (r *latencyRing) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = ms
	r.n++
	r.mu.Unlock()
}

// quantile returns the q-quantile of the retained window in
// milliseconds, or -1 before the first observation.
func (r *latencyRing) quantile(q float64) float64 {
	r.mu.Lock()
	n := int(min(r.n, uint64(len(r.buf))))
	sample := make([]float64, n)
	copy(sample, r.buf[:n])
	r.mu.Unlock()
	if n == 0 {
		return -1
	}
	sort.Float64s(sample)
	idx := int(q * float64(n-1))
	return sample[idx]
}

// metricsHooks are the live-read closures behind the gauge metrics;
// they are invoked at /metrics render time so the gauges never go
// stale.
type metricsHooks struct {
	liveCascades func() int
	generation   func() uint64
	started      time.Time
	walStats     func() (wal.Stats, bool)
	admission    func() map[string]admissionSnapshot
	health       func() healthSnapshot
	replStatus   func() (repl.Status, bool)
	isFollower   func() bool
	// epoch is the persisted fencing epoch; fencing reports the highest
	// foreign epoch observed and whether it fences this node.
	epoch   func() uint64
	fencing func() (uint64, bool)
	// shardID/ringSize identify this daemon's place in a routed fleet;
	// static for the process lifetime (-1/0 unsharded).
	shardID  int
	ringSize int
}

// newMetrics wires the metric tree. The wal_* counters are always
// published (zero when the WAL is disabled) so dashboards and the smoke
// client never see the key set change shape; wal_replayed_records
// counts events actually restored into the store at startup, net of the
// duplicates a compaction overlap replays. The overload_* tree and the
// degraded/stale gauges are the operator's view of the resilience
// layer: sheds and queue depths per route class, whether ingestion is
// read-only and why, and whether the serving generation is stale.
func newMetrics(hooks metricsHooks) *Metrics {
	root := new(expvar.Map).Init()
	counter := func(name string) *expvar.Int { v := new(expvar.Int); root.Set(name, v); return v }
	submap := func(name string) *expvar.Map { v := new(expvar.Map).Init(); root.Set(name, v); return v }
	m := &Metrics{
		root:          root,
		requests:      submap("requests"),
		status:        submap("responses_by_status"),
		latency:       submap("latency_ms"),
		events:        counter("events_ingested"),
		cacheHits:     counter("cache_hits"),
		cacheMiss:     counter("cache_misses"),
		reloads:       counter("model_reloads"),
		flushes:       counter("model_flushes"),
		shed:          submap("overload_shed"),
		deadlines:     counter("deadline_exceeded"),
		readOnly:      counter("readonly_rejects"),
		flushFailures: counter("flush_failures"),
		walRecoveries: counter("wal_recoveries"),

		followerRejects: counter("repl_follower_rejects"),
		replUnservable:  counter("repl_unservable_rejects"),
		promotions:      counter("repl_promotions"),
		fenceRejects:    counter("fence_rejects"),

		scenarioTrials: counter("scenario_trials_total"),
		scenarioRuns:   counter("scenario_runs_total"),
		scenarioActive: counter("scenario_active"),
		scenarioLat:    &latencyRing{},
	}
	for _, key := range latencyKeys {
		m.latency.Set(key, new(expvar.Int))
	}
	m.latency.Set("inf", new(expvar.Int))
	m.root.Set("live_cascades", expvar.Func(func() any { return hooks.liveCascades() }))
	m.root.Set("model_generation", expvar.Func(func() any { return hooks.generation() }))
	m.root.Set("cache_hit_ratio", expvar.Func(func() any {
		h, ms := m.cacheHits.Value(), m.cacheMiss.Value()
		if h+ms == 0 {
			return 0.0
		}
		return float64(h) / float64(h+ms)
	}))
	m.root.Set("uptime_seconds", expvar.Func(func() any {
		return time.Since(hooks.started).Seconds()
	}))

	// Sharding identity, always published (-1/0 unsharded) so the
	// router and dashboards can verify ring membership against a stable
	// key set.
	m.root.Set("shard_id", expvar.Func(func() any { return hooks.shardID }))
	m.root.Set("ring_size", expvar.Func(func() any { return hooks.ringSize }))

	// Overload-resilience surface: admission counters by route class,
	// deadline/read-only rejects, and the degraded/stale health gauges.
	m.root.Set("overload_admission", expvar.Func(func() any { return hooks.admission() }))
	m.root.Set("degraded", expvar.Func(func() any {
		if hooks.health().DegradedCause != "" {
			return 1
		}
		return 0
	}))
	m.root.Set("degraded_cause", expvar.Func(func() any { return hooks.health().DegradedCause }))
	m.root.Set("degraded_seconds", expvar.Func(func() any {
		return hooks.health().DegradedFor.Seconds()
	}))
	m.root.Set("model_stale", expvar.Func(func() any {
		if hooks.health().Stale {
			return 1
		}
		return 0
	}))
	m.root.Set("model_staleness_seconds", expvar.Func(func() any {
		return hooks.health().StaleFor.Seconds()
	}))

	// Replication surface: role, follower lag/reconnect gauges (live
	// reads off the follower's status, zero on a pure primary), and the
	// role-transition counters. Always published, like the wal_* tree,
	// so dashboards see a stable key set on every node of the pair.
	m.root.Set("repl_role", expvar.Func(func() any {
		if hooks.isFollower() {
			return "follower"
		}
		return "primary"
	}))

	// Fencing surface: the persisted epoch, whether a higher foreign
	// epoch has fenced this node, and how many writes the fence has
	// bounced. Always published (0/false) so the key set is stable.
	m.root.Set("epoch", expvar.Func(func() any { return hooks.epoch() }))
	m.root.Set("fenced", expvar.Func(func() any {
		if _, fenced := hooks.fencing(); fenced {
			return 1
		}
		return 0
	}))
	m.root.Set("fencing_epoch", expvar.Func(func() any {
		by, _ := hooks.fencing()
		return by
	}))
	replGauge := func(pick func(repl.Status) any) expvar.Func {
		return func() any {
			st, ok := hooks.replStatus()
			if !ok {
				return pick(repl.Status{})
			}
			return pick(st)
		}
	}
	m.root.Set("repl_state", replGauge(func(st repl.Status) any { return st.State }))
	m.root.Set("repl_servable", replGauge(func(st repl.Status) any { return st.Servable }))
	m.root.Set("repl_lag_records", replGauge(func(st repl.Status) any { return st.LagRecords }))
	m.root.Set("repl_lag_seconds", replGauge(func(st repl.Status) any { return st.LagSeconds }))
	m.root.Set("repl_reconnects", replGauge(func(st repl.Status) any { return st.Reconnects }))

	// Scenario-engine surface: work volume (trials), batch cadence, a
	// live gauge of in-flight simulations, and recent-batch latency
	// quantiles. Always published, zero/-1 before the first simulate.
	m.root.Set("scenario_batch_latency_ms_p50", expvar.Func(func() any {
		return m.scenarioLat.quantile(0.50)
	}))
	m.root.Set("scenario_batch_latency_ms_p99", expvar.Func(func() any {
		return m.scenarioLat.quantile(0.99)
	}))

	m.root.Set("wal_enabled", expvar.Func(func() any {
		_, on := hooks.walStats()
		return on
	}))
	walGauge := func(pick func(wal.Stats) uint64) expvar.Func {
		return func() any {
			st, _ := hooks.walStats()
			return pick(st)
		}
	}
	m.root.Set("wal_appends", walGauge(func(st wal.Stats) uint64 { return st.Appends }))
	m.root.Set("wal_fsyncs", walGauge(func(st wal.Stats) uint64 { return st.Fsyncs }))
	m.root.Set("wal_bytes", walGauge(func(st wal.Stats) uint64 { return st.Bytes }))
	m.root.Set("wal_replayed_records", walGauge(func(st wal.Stats) uint64 { return st.Replayed }))
	m.root.Set("wal_compactions", walGauge(func(st wal.Stats) uint64 { return st.Compactions }))
	m.root.Set("wal_torn_tail_truncations", walGauge(func(st wal.Stats) uint64 { return st.TornTruncations }))
	m.root.Set("wal_segments", walGauge(func(st wal.Stats) uint64 { return st.Segments }))
	return m
}

// observe records one completed request: endpoint counter, status class,
// and the latency histogram bucket.
func (m *Metrics) observe(endpoint string, status int, elapsed time.Duration) {
	m.requests.Add(endpoint, 1)
	m.status.Add(httpkit.StatusClass(status), 1)
	ms := float64(elapsed) / float64(time.Millisecond)
	for i, b := range latencyBuckets {
		if ms < b {
			m.latency.Add(latencyKeys[i], 1)
			return
		}
	}
	m.latency.Add("inf", 1)
}
