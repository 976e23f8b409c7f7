package main

// The benchmark's vocabulary. BENCHMARK.json at the repository root
// declares the same workloads and metrics to the driver; bench_test.go
// keeps the two in step.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"train", "core.Train fits back to back: cooccur, SLPA and Alg. 2 do all the work; serve, router, wal and net/http do none"},
	{"point", "single-item reads beside single-event writes on one daemon: net/http, the handler chain and encoding/json dominate; kernels, cache, WAL and router idle"},
	{"batch", "256-item batch reads over a Zipf working set 4x the TTL cache, sizes churned by a live feed: batch kernels, store snapshots, the hand-rolled codec and the cache dominate"},
	{"fleet", "router over 3 WAL-backed shards under a write-heavy mix: ring lookup, owner split, scatter-gather, the second HTTP hop and WAL group commit, all idle elsewhere"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Bound is the share of the parent's median by which the metric may
// worsen before a change is rejected. The timings' bounds are as wide
// as the driver allows because the reference box is shared: identical
// runs minutes apart differ by up to a fifth (README.md, "Steadiness").
// f1 does not depend on the machine, so its bound is tighter.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"items_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"f1", "ratio", "higher", 0.15},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

const (
	lower  = "lower"
	higher = "higher"
)

// perLayer is one row per number a single layer reports; none is gated.
// A layer that does no work on a workload reports 0 there. README.md
// has the table of which end-to-end metric each should move, and where.
var perLayer = []metricSpec{
	{Name: "vecmath.gemv_ns_per_row", Unit: "ns", Better: lower},
	{Name: "vecmath.gemv_gb_per_s", Unit: "GB/s", Better: higher},
	{Name: "vecmath.dot_ns", Unit: "ns", Better: lower},
	{Name: "vecmath.dist2_ns", Unit: "ns", Better: lower},
	{Name: "embed.accumgrad_ns_per_infection", Unit: "ns", Better: lower},
	{Name: "embed.loglik_ns_per_infection", Unit: "ns", Better: lower},
	{Name: "cooccur.build_s", Unit: "s", Better: lower},
	{Name: "cooccur.edges", Unit: "count", Better: lower},
	{Name: "slpa.detect_s", Unit: "s", Better: lower},
	{Name: "slpa.communities", Unit: "count", Better: higher},
	{Name: "infer.hierarchical_s", Unit: "s", Better: lower},
	{Name: "infer.levels", Unit: "count", Better: lower},
	{Name: "infer.epochs", Unit: "count", Better: lower},
	{Name: "infer.sequential_s", Unit: "s", Better: lower},
	{Name: "infer.hogwild_s", Unit: "s", Better: lower},
	{Name: "infer.hierarchical_w1_s", Unit: "s", Better: lower},
	{Name: "features.extract_ns", Unit: "ns", Better: lower},
	{Name: "features.extract_batch_ns_per_cascade", Unit: "ns", Better: lower},
	{Name: "svm.decision_block_ns_per_row", Unit: "ns", Better: lower},
	{Name: "svm.train_s", Unit: "s", Better: lower},
	{Name: "core.train_s", Unit: "s", Better: lower},
	{Name: "core.predict_ns", Unit: "ns", Better: lower},
	{Name: "core.predict_batch_ns_per_cascade", Unit: "ns", Better: lower},
	{Name: "core.train_predictor_s", Unit: "s", Better: lower},
	{Name: "core.top_influencers_us", Unit: "us", Better: lower},
	{Name: "serve.predict_handler_us", Unit: "us", Better: lower},
	{Name: "serve.predict_batch_handler_us_per_cascade", Unit: "us", Better: lower},
	{Name: "serve.events_handler_us_per_event", Unit: "us", Better: lower},
	{Name: "serve.store_append_ns", Unit: "ns", Better: lower},
	{Name: "serve.store_snapshot_ns", Unit: "ns", Better: lower},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "serve.shed_total", Unit: "count", Better: lower},
	{Name: "http.self_us", Unit: "us", Better: lower},
	{Name: "http.p90_ms", Unit: "ms", Better: lower},
	{Name: "http.p95_ms", Unit: "ms", Better: lower},
	{Name: "http.p99_ms", Unit: "ms", Better: lower},
	{Name: "wal.append_batch_us", Unit: "us", Better: lower},
	{Name: "wal.fsyncs", Unit: "count", Better: lower},
	{Name: "wal.events_per_fsync", Unit: "count", Better: higher},
	{Name: "wal.bytes_per_event", Unit: "B", Better: lower},
	{Name: "router.self_us", Unit: "us", Better: lower},
	{Name: "router.fanout_influencers_us", Unit: "us", Better: lower},
	{Name: "router.ring_owner_ns", Unit: "ns", Better: lower},
	{Name: "router.partial_total", Unit: "count", Better: lower},
	{Name: "router.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "inflmax.greedy_ms", Unit: "ms", Better: lower},
	{Name: "scenario.run_ms_per_trial", Unit: "ms", Better: lower},
	{Name: "go.allocs_per_item", Unit: "count", Better: lower},
	{Name: "go.alloc_bytes_per_item", Unit: "B", Better: lower},
	{Name: "go.gc_cpu_share", Unit: "ratio", Better: lower},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
	{Name: "failed_share", Unit: "ratio", Better: lower},
}

// metricValue is one reported number, in the driver's wire form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report renders measured values as the run's metrics: the per-layer
// ones after a traced run, else the end-to-end ones. Every declared
// name is present; a layer the workload never entered reads 0.
func report(traced bool, values map[string]float64) map[string]metricValue {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		out[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return out
}
