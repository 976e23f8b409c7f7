package httpkit

import (
	"expvar"
	"fmt"
	"net/http"
	"time"
)

// latencyBuckets are the upper bounds (milliseconds) of the request
// latency histogram and latencyKeys their metric names, formatted once;
// the last bucket, "inf", is unbounded.
var (
	latencyBuckets = [...]float64{1, 5, 25, 100, 500}
	latencyKeys    = [...]string{"le_1ms", "le_5ms", "le_25ms", "le_100ms", "le_500ms"}
)

// statusClasses are the response-class labels, indexed by status/100.
var statusClasses = [...]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}

// Metrics is the observability surface the daemon and the router share:
// an expvar tree kept off the global registry, so several servers in one
// process (tests, embedded uses) never collide on published names, with
// the per-request subtrees and the uptime. A daemon embeds it and
// registers its own counters and gauges beside them; every key is
// published from construction, so dashboards see a stable shape.
type Metrics struct {
	root *expvar.Map

	Requests *expvar.Map // per-endpoint request counts
	Status   *expvar.Map // response counts by status class (2xx/4xx/5xx)
	Latency  *expvar.Map // latency histogram buckets, all endpoints
}

// NewMetrics returns a tree holding the per-request subtrees and
// uptime_seconds, counted from now.
func NewMetrics() Metrics {
	m := Metrics{root: new(expvar.Map).Init()}
	started := time.Now()
	m.Gauge("uptime_seconds", func() any { return time.Since(started).Seconds() })
	m.Requests = m.Submap("requests")
	m.Status = m.Submap("responses_by_status")
	m.Latency = m.Submap("latency_ms")
	for _, key := range latencyKeys {
		m.Latency.Set(key, new(expvar.Int))
	}
	m.Latency.Set("inf", new(expvar.Int))
	return m
}

// Counter registers a counter under name.
func (m *Metrics) Counter(name string) *expvar.Int {
	v := new(expvar.Int)
	m.root.Set(name, v)
	return v
}

// Submap registers a labelled family of counters under name.
func (m *Metrics) Submap(name string) *expvar.Map {
	v := new(expvar.Map).Init()
	m.root.Set(name, v)
	return v
}

// Gauge registers a value read at render time, so it never goes stale.
func (m *Metrics) Gauge(name string, read expvar.Func) { m.root.Set(name, read) }

// Observe records one completed request: endpoint counter, status class
// (formatted only past 5xx) and latency histogram bucket.
func (m *Metrics) Observe(endpoint string, status int, elapsed time.Duration) {
	m.Requests.Add(endpoint, 1)
	if c := status / 100; c >= 0 && c < len(statusClasses) {
		m.Status.Add(statusClasses[c], 1)
	} else {
		m.Status.Add(fmt.Sprintf("%dxx", c), 1)
	}
	ms := float64(elapsed) / float64(time.Millisecond)
	for i, b := range latencyBuckets {
		if ms < b {
			m.Latency.Add(latencyKeys[i], 1)
			return
		}
	}
	m.Latency.Add("inf", 1)
}

// ServeHTTP renders the tree as JSON: a daemon's /metrics.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintln(w, m.root.String())
}

// statusRecorder captures the status code a handler writes so Instrument
// can label the response-class counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer. Embedding the ResponseWriter
// interface hides http.Flusher, and a streaming handler behind the
// middleware (the replication tail) that cannot flush leaves its frames
// and heartbeats in net/http's buffer for seconds.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Instrument wraps a handler with request accounting under the endpoint
// label: the status it answered and how long it took go to Observe.
func (m *Metrics) Instrument(label string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		m.Observe(label, rec.status, time.Since(start))
	}
}
