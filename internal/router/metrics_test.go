package router

import (
	"testing"
	"time"
)

var observeSequence = []struct {
	endpoint string
	status   int
}{
	{"predict", 200}, {"predict", 404}, {"events", 200}, {"events", 429}, {"events", 502},
	{"influencers", 503}, {"metrics", 302}, {"simulate", 101}, {"simulate", 700},
}

// TestObserveGolden holds the per-request subtrees of the router's
// /metrics to the bytes the tree rendered, after the same sequence,
// while observe still formatted its status key on every request.
func TestObserveGolden(t *testing.T) {
	m := newRouterMetrics(0, nil, nil)
	for _, o := range observeSequence {
		m.Observe(o.endpoint, o.status, time.Millisecond)
	}
	if got, want := m.Requests.String(), `{"events": 3, "influencers": 1, "metrics": 1, "predict": 2, "simulate": 2}`; got != want {
		t.Errorf("requests = %s, want %s", got, want)
	}
	if got, want := m.Status.String(), `{"1xx": 1, "2xx": 2, "3xx": 1, "4xx": 2, "5xx": 2, "7xx": 1}`; got != want {
		t.Errorf("responses_by_status = %s, want %s", got, want)
	}
	// The shared tree's histogram, which the router publishes since it
	// embeds httpkit.Metrics: nine requests of exactly 1 ms.
	if got, want := m.Latency.String(), `{"inf": 0, "le_100ms": 0, "le_1ms": 0, "le_25ms": 0, "le_500ms": 0, "le_5ms": 9}`; got != want {
		t.Errorf("latency_ms = %s, want %s", got, want)
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	m := newRouterMetrics(0, nil, nil)
	seq := observeSequence[:len(observeSequence)-1] // the precomputed labels
	for _, o := range seq {
		m.Observe(o.endpoint, o.status, time.Millisecond)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		o := seq[i%len(seq)]
		m.Observe(o.endpoint, o.status, time.Millisecond)
		i++
	})
	if allocs != 0 {
		t.Fatalf("observe allocates %.1f times a request", allocs)
	}
}
