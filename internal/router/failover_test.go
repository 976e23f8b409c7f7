package router

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"viralcast/internal/serve"
)

// waitFor polls cond until it holds or the deadline passes — the
// supervision loop runs on its own jittered cadence, so assertions
// about it are convergence assertions.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// cascadeOwnedBy finds a cascade id the ring places on the wanted
// shard, so the test's ingest deterministically lands there.
func cascadeOwnedBy(ring *Ring, shard int) int {
	for id := 1; ; id++ {
		if ring.Owner(id) == shard {
			return id
		}
	}
}

// TestAutoFailoverPromotesFollower is the in-process supervision test:
// a two-shard fleet where shard 0 is a WAL-backed primary with a live
// replication follower. The primary's listener closes (no drain — the
// socket just dies); the router must, with no operator action, walk
// its failure detector healthy → suspect → failing_over → recovered,
// verify the follower, promote it at epoch 1, rewrite the ring slot,
// and answer non-partial global queries again. The restarted zombie
// ex-primary — same address, same WAL — must come back fenced.
func TestAutoFailoverPromotesFollower(t *testing.T) {
	pdir := t.TempDir()
	psrv, err := serve.New(serve.Config{
		Loader:  fixtureLoader(t),
		ShardID: 0, RingSize: 2, WALDir: pdir,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(psrv.Handler())
	primaryAddr := pts.Listener.Addr().String()

	fsrv, err := serve.New(serve.Config{
		Loader:  fixtureLoader(t),
		ShardID: 0, RingSize: 2, WALDir: t.TempDir(),
		FollowURL:      pts.URL,
		ReplBackoffMin: time.Millisecond,
		ReplBackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close()
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()

	s1, err := serve.New(serve.Config{
		Loader: fixtureLoader(t), ShardID: 1, RingSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s1ts := httptest.NewServer(s1.Handler())
	defer s1ts.Close()

	rt, err := New(Config{
		Shards:         []Shard{{Primary: pts.URL, Follower: fts.URL}, {Primary: s1ts.URL}},
		RequestTimeout: 3 * time.Second,
		ProbeEvery:     50 * time.Millisecond,
		SuspectAfter:   2,
		AutoFailover:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); rt.Serve(ctx) }() //nolint:errcheck // shut down via cancel
	defer func() { cancel(); <-serveDone }()
	base := "http://" + addr.String()

	// Ingest onto shard 0 through the router and wait for the follower
	// to hold the acked events — only a caught-up follower is promotable.
	cascade := cascadeOwnedBy(rt.Ring(), 0)
	code, ack := postRaw(t, base+"/v1/events", map[string]any{"events": []map[string]any{
		{"cascade": cascade, "node": 1, "time": 0.1},
		{"cascade": cascade, "node": 2, "time": 0.2},
		{"cascade": cascade, "node": 3, "time": 0.3},
	}})
	if code != http.StatusOK {
		t.Fatalf("ingest: code %d body %s", code, ack)
	}
	if acked := decodeJSON(t, ack)["accepted"]; acked != float64(3) {
		t.Fatalf("ingest accepted %v of 3", acked)
	}
	waitFor(t, "follower catch-up", 15*time.Second, func() bool {
		_, body := getRaw(t, fts.URL+"/readyz")
		ready := decodeJSON(t, body)
		if ready["replication_servable"] != true || ready["replication_lag_records"] != float64(0) {
			return false
		}
		code, casc := getRaw(t, fts.URL+"/v1/cascades/"+strconv.Itoa(cascade))
		return code == http.StatusOK && decodeJSON(t, casc)["size"] == float64(3)
	})

	// Kill the primary's socket. No drain, no goodbye.
	pts.CloseClientConnections()
	pts.Close()

	// The supervisor must detect, verify, promote, and recover the slot
	// on its own: failovers counted, slot healthy again, epoch 1.
	waitFor(t, "automatic failover", 15*time.Second, func() bool {
		return rt.metrics.failovers.Value() >= 1
	})
	// The health snapshot converges one probe round behind the swap.
	var body []byte
	waitFor(t, "fleet to report ready again", 15*time.Second, func() bool {
		_, body = getRaw(t, base+"/readyz")
		return decodeJSON(t, body)["status"] == "ready"
	})
	ready := decodeJSON(t, body)
	det := ready["failure_detector"].(map[string]any)["shard-0"].(map[string]any)
	if det["state"] != StateHealthy || det["failovers"] != float64(1) || det["epoch"] != float64(1) {
		t.Fatalf("post-failover detector state: %v", det)
	}
	if det["target"] != fts.URL || det["quarantined"] != pts.URL {
		t.Fatalf("slot targets not rewritten: %v", det)
	}

	// The promoted follower is a primary at epoch 1 and the acked
	// events survived the failover — durability across promotion.
	_, fready := getRaw(t, fts.URL+"/readyz")
	fr := decodeJSON(t, fready)
	if fr["role"] != "primary" || fr["epoch"] != float64(1) {
		t.Fatalf("follower after failover: %s", fready)
	}
	code, casc := getRaw(t, base+"/v1/cascades/"+strconv.Itoa(cascade))
	if code != http.StatusOK || decodeJSON(t, casc)["size"] != float64(3) {
		t.Fatalf("acked events lost across failover: code %d body %s", code, casc)
	}

	// Global queries are whole again — not partial — and the write path
	// lands on the new primary.
	code, infl := getRaw(t, base+"/v1/influencers?k=5")
	if code != http.StatusOK {
		t.Fatalf("post-failover influencers: code %d", code)
	}
	if got := decodeJSON(t, infl); got["partial"] == true {
		t.Fatalf("post-failover answer still partial: %s", infl)
	}
	code, ack = postRaw(t, base+"/v1/events", map[string]any{"cascade": cascade, "node": 4, "time": 0.4})
	if code != http.StatusOK || decodeJSON(t, ack)["accepted"] != float64(1) {
		t.Fatalf("post-failover ingest: code %d body %s", code, ack)
	}

	// Supervision metrics: the failover counted, the zombie is in
	// quarantine, and the per-shard epoch gauge moved.
	_, mbody := getRaw(t, base+"/metrics")
	m := decodeJSON(t, mbody)
	if m["router_failovers_total"] != float64(1) || m["router_quarantined"] != float64(1) {
		t.Fatalf("supervision metrics: failovers=%v quarantined=%v", m["router_failovers_total"], m["router_quarantined"])
	}
	if m["shard_epochs"].(map[string]any)["shard-0"] != float64(1) {
		t.Fatalf("shard_epochs gauge: %v", m["shard_epochs"])
	}

	// The zombie restarts on its old address with its old WAL. The
	// router's observation probes carry epoch 1, so the zombie latches
	// fenced and refuses writes — split-brain is structurally over.
	psrv.Close()
	zsrv, err := serve.New(serve.Config{
		Loader:  fixtureLoader(t),
		ShardID: 0, RingSize: 2, WALDir: pdir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer zsrv.Close()
	ln, err := net.Listen("tcp", primaryAddr)
	if err != nil {
		t.Fatalf("rebinding the dead primary's address: %v", err)
	}
	zts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: zsrv.Handler()}}
	zts.Start()
	defer zts.Close()
	waitFor(t, "zombie to latch the fence", 15*time.Second, func() bool {
		_, zb := getRaw(t, zts.URL+"/readyz")
		return decodeJSON(t, zb)["fenced"] == true
	})
	code, rej := postRaw(t, zts.URL+"/v1/events", map[string]any{"cascade": cascade, "node": 9, "time": 0.9})
	if code != http.StatusConflict || decodeJSON(t, rej)["reason"] != "fenced" {
		t.Fatalf("zombie accepted a write: code %d body %s", code, rej)
	}
}

// A follower is promotable only at replication lag 0, whatever the
// router's configuration: one record behind is refused, since that
// record may be a durably-acked event the promoted log would not hold.
func TestCheckFollowerRefusesAnyLag(t *testing.T) {
	var lag atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, `{"role":"follower","status":"current","replication_servable":true,"replication_lag_records":%d,"replication_fingerprint":"f00d"}`, lag.Load())
	}))
	defer ts.Close()
	rt, err := New(Config{Shards: []Shard{{Primary: "http://127.0.0.1:1", Follower: ts.URL}}, AutoFailover: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []uint64{0, 1, 1 << 20} {
		lag.Store(l)
		_, err := rt.checkFollower(context.Background(), ts.URL, 0)
		if (err == nil) != (l == 0) {
			t.Fatalf("lag %d: checkFollower error %v", l, err)
		}
	}
}
