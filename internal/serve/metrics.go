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

// Metrics is the daemon's observability surface: the shared request
// tree (httpkit.Metrics owns the root, the per-request subtrees and the
// /metrics handler) plus the daemon's own counters and gauges.
type Metrics struct {
	httpkit.Metrics

	events        *expvar.Int // total ingested infection events
	cacheHits     *expvar.Int
	cacheMiss     *expvar.Int
	reloads       *expvar.Int // successful model reloads (incl. flush swaps)
	flushes       *expvar.Int // flushes that refit the model
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
// bucketed request histogram is wrong for this: scenario batches span
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
// published (zero when the WAL is disabled) so dashboards never see
// the key set change shape; wal_replayed_records counts events actually
// restored into the store at startup, net of the duplicates a
// compaction overlap replays. The overload_* tree and the
// degraded/stale gauges are the operator's view of the resilience
// layer: sheds and queue depths per route class, whether ingestion is
// read-only and why, and whether the serving generation is stale.
func newMetrics(hooks metricsHooks) *Metrics {
	base := httpkit.NewMetrics()
	m := &Metrics{
		Metrics:       base,
		events:        base.Counter("events_ingested"),
		cacheHits:     base.Counter("cache_hits"),
		cacheMiss:     base.Counter("cache_misses"),
		reloads:       base.Counter("model_reloads"),
		flushes:       base.Counter("model_flushes"),
		shed:          base.Submap("overload_shed"),
		deadlines:     base.Counter("deadline_exceeded"),
		readOnly:      base.Counter("readonly_rejects"),
		flushFailures: base.Counter("flush_failures"),
		walRecoveries: base.Counter("wal_recoveries"),

		followerRejects: base.Counter("repl_follower_rejects"),
		replUnservable:  base.Counter("repl_unservable_rejects"),
		promotions:      base.Counter("repl_promotions"),
		fenceRejects:    base.Counter("fence_rejects"),

		scenarioTrials: base.Counter("scenario_trials_total"),
		scenarioRuns:   base.Counter("scenario_runs_total"),
		scenarioActive: base.Counter("scenario_active"),
		scenarioLat:    &latencyRing{},
	}
	// flag publishes a condition as 0/1.
	flag := func(name string, on func() bool) {
		m.Gauge(name, func() any {
			if on() {
				return 1
			}
			return 0
		})
	}
	m.Gauge("live_cascades", func() any { return hooks.liveCascades() })
	m.Gauge("model_generation", func() any { return hooks.generation() })
	m.Gauge("cache_hit_ratio", func() any {
		h, ms := m.cacheHits.Value(), m.cacheMiss.Value()
		if h+ms == 0 {
			return 0.0
		}
		return float64(h) / float64(h+ms)
	})

	// Sharding identity, always published (-1/0 unsharded) so the
	// router and dashboards can verify ring membership against a stable
	// key set.
	m.Gauge("shard_id", func() any { return hooks.shardID })
	m.Gauge("ring_size", func() any { return hooks.ringSize })

	// Overload-resilience surface: admission counters by route class,
	// deadline/read-only rejects, and the degraded/stale health gauges.
	m.Gauge("overload_admission", func() any { return hooks.admission() })
	flag("degraded", func() bool { return hooks.health().DegradedCause != "" })
	m.Gauge("degraded_cause", func() any { return hooks.health().DegradedCause })
	m.Gauge("degraded_seconds", func() any { return hooks.health().DegradedFor.Seconds() })
	flag("model_stale", func() bool { return hooks.health().Stale })
	m.Gauge("model_staleness_seconds", func() any { return hooks.health().StaleFor.Seconds() })

	// Replication surface: role, follower lag/reconnect gauges (live
	// reads off the follower's status, zero on a pure primary), and the
	// role-transition counters. Always published, like the wal_* tree,
	// so dashboards see a stable key set on every node of the pair.
	m.Gauge("repl_role", func() any {
		if hooks.isFollower() {
			return "follower"
		}
		return "primary"
	})

	// Fencing surface: the persisted epoch, whether a higher foreign
	// epoch has fenced this node, and how many writes the fence has
	// bounced. Always published (0/false) so the key set is stable.
	m.Gauge("epoch", func() any { return hooks.epoch() })
	flag("fenced", func() bool { _, fenced := hooks.fencing(); return fenced })
	m.Gauge("fencing_epoch", func() any {
		by, _ := hooks.fencing()
		return by
	})
	replGauge := func(pick func(repl.Status) any) expvar.Func {
		return func() any {
			st, ok := hooks.replStatus()
			if !ok {
				return pick(repl.Status{})
			}
			return pick(st)
		}
	}
	m.Gauge("repl_state", replGauge(func(st repl.Status) any { return st.State }))
	m.Gauge("repl_servable", replGauge(func(st repl.Status) any { return st.Servable }))
	m.Gauge("repl_lag_records", replGauge(func(st repl.Status) any { return st.LagRecords }))
	m.Gauge("repl_lag_seconds", replGauge(func(st repl.Status) any { return st.LagSeconds }))
	m.Gauge("repl_reconnects", replGauge(func(st repl.Status) any { return st.Reconnects }))

	// Scenario-engine surface: work volume (trials), batch cadence, a
	// live gauge of in-flight simulations, and recent-batch latency
	// quantiles. Always published, zero/-1 before the first simulate.
	m.Gauge("scenario_batch_latency_ms_p50", func() any { return m.scenarioLat.quantile(0.50) })
	m.Gauge("scenario_batch_latency_ms_p99", func() any { return m.scenarioLat.quantile(0.99) })

	m.Gauge("wal_enabled", func() any {
		_, on := hooks.walStats()
		return on
	})
	walGauge := func(pick func(wal.Stats) uint64) expvar.Func {
		return func() any {
			st, _ := hooks.walStats()
			return pick(st)
		}
	}
	m.Gauge("wal_appends", walGauge(func(st wal.Stats) uint64 { return st.Appends }))
	m.Gauge("wal_fsyncs", walGauge(func(st wal.Stats) uint64 { return st.Fsyncs }))
	m.Gauge("wal_bytes", walGauge(func(st wal.Stats) uint64 { return st.Bytes }))
	m.Gauge("wal_replayed_records", walGauge(func(st wal.Stats) uint64 { return st.Replayed }))
	m.Gauge("wal_compactions", walGauge(func(st wal.Stats) uint64 { return st.Compactions }))
	m.Gauge("wal_torn_tail_truncations", walGauge(func(st wal.Stats) uint64 { return st.TornTruncations }))
	m.Gauge("wal_segments", walGauge(func(st wal.Stats) uint64 { return st.Segments }))
	return m
}
