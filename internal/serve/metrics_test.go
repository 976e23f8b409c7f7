package serve

import (
	"testing"
	"time"
)

// observeSequence covers every latency bucket on both sides of its
// bound, every status class, and a status past the precomputed labels.
var observeSequence = []struct {
	endpoint string
	status   int
	elapsed  time.Duration
}{
	{"predict", 200, 300 * time.Microsecond},
	{"predict", 200, time.Millisecond},
	{"predict", 404, 4999 * time.Microsecond},
	{"events", 200, 5 * time.Millisecond},
	{"events", 429, 24 * time.Millisecond},
	{"events", 503, 99 * time.Millisecond},
	{"influencers", 500, 100 * time.Millisecond},
	{"influencers", 302, 499 * time.Millisecond},
	{"repl_stream", 101, 500 * time.Millisecond},
	{"simulate", 200, 3 * time.Second},
	{"simulate", 700, 0},
}

// TestObserveGolden holds the per-request subtrees of /metrics to the
// bytes the tree rendered, after the same sequence, while observe still
// formatted its status and bucket keys on every request.
func TestObserveGolden(t *testing.T) {
	m := newMetrics(metricsHooks{})
	for _, o := range observeSequence {
		m.Observe(o.endpoint, o.status, o.elapsed)
	}
	for _, c := range []struct{ name, got, want string }{
		{"requests", m.Requests.String(), `{"events": 3, "influencers": 2, "predict": 3, "repl_stream": 1, "simulate": 2}`},
		{"responses_by_status", m.Status.String(), `{"1xx": 1, "2xx": 4, "3xx": 1, "4xx": 2, "5xx": 2, "7xx": 1}`},
		{"latency_ms", m.Latency.String(), `{"inf": 2, "le_100ms": 1, "le_1ms": 2, "le_25ms": 2, "le_500ms": 2, "le_5ms": 2}`},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	m := newMetrics(metricsHooks{})
	for _, o := range observeSequence[:len(observeSequence)-1] { // every precomputed label once
		m.Observe(o.endpoint, o.status, o.elapsed)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		o := observeSequence[i%(len(observeSequence)-1)]
		m.Observe(o.endpoint, o.status, o.elapsed)
		i++
	})
	if allocs != 0 {
		t.Fatalf("observe allocates %.1f times a request", allocs)
	}
}
