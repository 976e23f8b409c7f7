package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// waitUntil polls cond for up to two seconds; the soak-free admission
// tests use it to observe the limiter's queue state instead of sleeping.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLimiterShedsWhenSaturated exercises the three admission outcomes
// at the limiter level: an execution slot, a bounded queue wait, and a
// shed once both are full.
func TestLimiterShedsWhenSaturated(t *testing.T) {
	l := newLimiter("test", ClassLimit{MaxInflight: 1, MaxQueue: 1})
	release, err := l.acquire(context.Background())
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	queuedDone := make(chan error, 1)
	go func() {
		rel, err := l.acquire(context.Background())
		if err == nil {
			rel()
		}
		queuedDone <- err
	}()
	waitUntil(t, "second request to queue", func() bool { return l.queued.Load() == 1 })

	if _, err := l.acquire(context.Background()); !errors.Is(err, errShed) {
		t.Fatalf("third acquire with full queue: err = %v, want errShed", err)
	}
	if got := l.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	release()
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	if got := l.admitted.Load(); got != 2 {
		t.Fatalf("admitted counter = %d, want 2", got)
	}
}

// TestLimiterDeadlineWhileQueued: a context that expires while waiting
// in the queue surfaces as the context's error, not a shed.
func TestLimiterDeadlineWhileQueued(t *testing.T) {
	l := newLimiter("test", ClassLimit{MaxInflight: 1, MaxQueue: 4})
	release, err := l.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := l.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire with expired deadline: err = %v, want DeadlineExceeded", err)
	}
	if got := l.queued.Load(); got != 0 {
		t.Fatalf("queue count after deadline = %d, want 0", got)
	}
}

// TestLimiterUnlimitedClass: MaxInflight < 0 disables the gate.
func TestLimiterUnlimitedClass(t *testing.T) {
	if l := newLimiter("test", ClassLimit{MaxInflight: -1}); l != nil {
		t.Fatalf("negative MaxInflight should produce a nil (unlimited) limiter")
	}
}

// TestAdmissionShedsWithRetryAfter drives the full HTTP path: with the
// compute class's one slot held, a second request queues, a third is
// shed with 429 + Retry-After, and the queued one completes once the
// slot frees.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	srv, err := New(Config{
		Loader: fixtureLoader(t),
		Admission: AdmissionConfig{
			Compute: ClassLimit{MaxInflight: 1, MaxQueue: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	l := srv.admission.limiters[classCompute]
	release, err := l.acquire(context.Background()) // occupy the only slot
	if err != nil {
		t.Fatal(err)
	}

	queued := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/seeds?k=2&horizon=2")
		if err != nil {
			queued <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	waitUntil(t, "a compute request to queue", func() bool { return l.queued.Load() == 1 })

	resp, err := http.Get(ts.URL + "/v1/seeds?k=3&horizon=3")
	if err != nil {
		t.Fatal(err)
	}
	status, body := decodeResp(t, resp)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated compute request: status %d, body %v", status, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if body["reason"] != "overload" || body["class"] != "compute" {
		t.Fatalf("shed body missing machine-readable fields: %v", body)
	}
	if body["retry_after_seconds"] != 1.0 {
		t.Fatalf("retry_after_seconds = %v, want 1", body["retry_after_seconds"])
	}

	release()
	if got := <-queued; got != http.StatusOK {
		t.Fatalf("queued request after release: status %d", got)
	}
	// Honoring the hint works: the request that was shed goes through
	// once the class has room again.
	if status, body := getJSON(t, ts.URL+"/v1/seeds?k=3&horizon=3"); status != http.StatusOK {
		t.Fatalf("shed request retried after the release: status %d, body %v", status, body)
	}

	// The shed shows up both in the overload_shed counter and the
	// admission snapshot gauge.
	_, m := getJSON(t, ts.URL+"/metrics")
	shed, ok := m["overload_shed"].(map[string]any)
	if !ok || shed["compute"] != 1.0 {
		t.Fatalf("overload_shed = %v, want compute:1", m["overload_shed"])
	}
	adm, ok := m["overload_admission"].(map[string]any)
	if !ok {
		t.Fatalf("overload_admission missing: %v", m["overload_admission"])
	}
	if cls, ok := adm["compute"].(map[string]any); !ok || cls["shed"] != 1.0 {
		t.Fatalf("admission snapshot = %v, want compute shed 1", adm)
	}
}

// TestControlPlaneUngated: health probes and reload stay reachable even
// when every data-plane class is fully saturated.
func TestControlPlaneUngated(t *testing.T) {
	srv, err := New(Config{
		Loader:    fixtureLoader(t),
		Admission: AdmissionConfig{Compute: ClassLimit{MaxInflight: 1, MaxQueue: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tightenClass(srv, classRead, ClassLimit{MaxInflight: 1, MaxQueue: -1})
	tightenClass(srv, classIngest, ClassLimit{MaxInflight: 1, MaxQueue: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, class := range []string{classRead, classCompute, classIngest} {
		release, err := srv.admission.limiters[class].acquire(context.Background())
		if err != nil {
			t.Fatalf("saturating %s: %v", class, err)
		}
		defer release()
	}

	// Data plane sheds immediately (no queue)...
	if status, _ := getJSON(t, ts.URL+"/v1/rate?u=0&v=1"); status != http.StatusTooManyRequests {
		t.Fatalf("saturated read: status %d, want 429", status)
	}
	// ...while the control plane still answers.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if status, _ := getJSON(t, ts.URL+path); status != http.StatusOK {
			t.Fatalf("GET %s while saturated: status %d, want 200", path, status)
		}
	}
	if status, _ := postJSON(t, ts.URL+"/v1/reload", map[string]any{}); status != http.StatusOK {
		t.Fatalf("reload while saturated: status %d, want 200", status)
	}
}

// tightenClass re-limits one of srv's classes in place, for the read
// and ingest classes, which have no Config knob. Call it before srv
// takes traffic.
func tightenClass(srv *Server, class string, lim ClassLimit) {
	l := srv.admission.limiters[class]
	l.slots = make(chan struct{}, lim.MaxInflight)
	l.maxQueue = int64(max(lim.MaxQueue, 0))
}
