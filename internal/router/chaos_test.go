package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"viralcast/internal/serve"
)

// TestRouterPartialAfterShardSIGKILL is the process-level chaos
// acceptance test: a real shard process (this test binary re-exec'd)
// joins two in-process shards behind a router; the fleet first proves
// byte-identity with a single-node oracle, then the shard process is
// SIGKILLed — no drain, no goodbye — and the router must keep
// answering within its request budget with a well-formed partial: 200,
// "partial": true, the dead shard named, the surviving stripes exact.
func TestRouterPartialAfterShardSIGKILL(t *testing.T) {
	const childEnv = "VIRALCAST_ROUTER_SHARD_DIR"
	if dir := os.Getenv(childEnv); dir != "" {
		runShardChild(t, dir)
		return
	}
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestRouterPartialAfterShardSIGKILL$", "-test.v")
	cmd.Env = append(os.Environ(), childEnv+"="+dir)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // cleanup on failure paths

	// The child writes its listen address once it is serving.
	addrFile := filepath.Join(dir, "addr")
	var childURL string
	deadline := time.Now().Add(90 * time.Second)
	for childURL == "" {
		if time.Now().After(deadline) {
			t.Fatalf("child shard never published its address\nchild output:\n%s", childOut.String())
		}
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			childURL = "http://" + strings.TrimSpace(string(b))
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Shards 0 and 2 in-process; shard 1 is the child process.
	const ringSize = 3
	shards := make([]Shard, ringSize)
	for _, i := range []int{0, 2} {
		srv, err := serve.New(serve.Config{
			Loader: fixtureLoader(t), ShardID: i, RingSize: ringSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		shards[i] = Shard{Primary: ts.URL}
	}
	shards[1] = Shard{Primary: childURL}
	const budget = 3 * time.Second
	rt, err := New(Config{Shards: shards, RequestTimeout: budget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Phase 1: the full fleet is byte-identical to a single-node oracle.
	oracle := newOracle(t)
	code, routed := getRaw(t, ts.URL+"/v1/influencers?k=10")
	codeO, direct := getRaw(t, oracle.URL+"/v1/influencers?k=10")
	if code != http.StatusOK || codeO != http.StatusOK {
		t.Fatalf("healthy fleet: router %d, oracle %d\nchild output:\n%s", code, codeO, childOut.String())
	}
	if got, want := rawField(t, routed, "influencers"), rawField(t, direct, "influencers"); !bytes.Equal(got, want) {
		t.Fatalf("fleet with a real shard process diverges from the oracle\n got %s\nwant %s", got, want)
	}

	// Phase 2: SIGKILL the shard process and require a fast partial.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // the kill is the expected exit
	start := time.Now()
	code, body := getRaw(t, ts.URL+"/v1/influencers?k=12") // past the k=10 ranking the router has cached
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("post-kill answer: code %d body %s", code, body)
	}
	if elapsed >= budget {
		t.Fatalf("partial answer took %v, past the %v budget", elapsed, budget)
	}
	got := decodeJSON(t, body)
	if got["partial"] != true {
		t.Fatalf("SIGKILLed shard did not degrade the answer to partial: %s", body)
	}
	if !reflect.DeepEqual(got["missing_shards"], []any{"shard-1"}) {
		t.Fatalf("missing_shards = %v, want [shard-1]", got["missing_shards"])
	}
	if got["cached"] != false {
		t.Fatalf("partial answer claims to be cached: %s", body)
	}
}

// TestRouterAutoFailoverAfterPrimarySIGKILL is the self-healing
// acceptance test: a two-shard fleet where shard 0's primary is a real
// WAL-backed process (this binary re-exec'd) with an in-process
// replication follower. The primary is SIGKILLed mid-ingest. With zero
// manual promotes the router must detect the death, verify the
// follower, promote it at a fresh fencing epoch, and return to serving
// non-partial answers byte-identical to a single-node oracle — within
// the probe budget. The ex-primary then restarts on its old address
// with its old WAL, and must come back fenced: 409 on ingest and
// flush, quarantined at the router.
func TestRouterAutoFailoverAfterPrimarySIGKILL(t *testing.T) {
	const (
		dirEnv  = "VIRALCAST_FAILOVER_PRIMARY_DIR"
		addrEnv = "VIRALCAST_FAILOVER_PRIMARY_ADDR" // rebind address for the zombie run
		fileEnv = "VIRALCAST_FAILOVER_ADDRFILE"
	)
	if dir := os.Getenv(dirEnv); dir != "" {
		runPrimaryChild(t, dir, os.Getenv(addrEnv), os.Getenv(fileEnv))
		return
	}
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}

	dir := t.TempDir()
	spawn := func(rebind, addrFile string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=TestRouterAutoFailoverAfterPrimarySIGKILL$", "-test.v")
		cmd.Env = append(os.Environ(), dirEnv+"="+dir, addrEnv+"="+rebind, fileEnv+"="+addrFile)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill() }) //nolint:errcheck // cleanup on failure paths
		return cmd
	}
	awaitAddr := func(addrFile string) string {
		var url string
		waitFor(t, "child primary address in "+addrFile, 90*time.Second, func() bool {
			b, err := os.ReadFile(filepath.Join(dir, addrFile))
			if err != nil || len(b) == 0 {
				return false
			}
			url = "http://" + strings.TrimSpace(string(b))
			return true
		})
		return url
	}
	primary := spawn("", "addr1")
	primaryURL := awaitAddr("addr1")

	fsrv, err := serve.New(serve.Config{
		Loader:  fixtureLoader(t),
		ShardID: 0, RingSize: 2, WALDir: t.TempDir(),
		FollowURL:      primaryURL,
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

	const probeEvery = 100 * time.Millisecond
	rt, err := New(Config{
		Shards:         []Shard{{Primary: primaryURL, Follower: fts.URL}, {Primary: s1ts.URL}},
		RequestTimeout: 3 * time.Second,
		ProbeEvery:     probeEvery,
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

	// Phase 1: healthy fleet, byte-identical to the oracle; seed events
	// onto shard 0 and wait until the follower verifiably holds them —
	// those are the durably-acked-and-replicated events the failover
	// must not lose.
	oracle := newOracle(t)
	code, routed := getRaw(t, base+"/v1/influencers?k=10")
	codeO, direct := getRaw(t, oracle.URL+"/v1/influencers?k=10")
	if code != http.StatusOK || codeO != http.StatusOK {
		t.Fatalf("healthy fleet: router %d, oracle %d", code, codeO)
	}
	if got, want := rawField(t, routed, "influencers"), rawField(t, direct, "influencers"); !bytes.Equal(got, want) {
		t.Fatalf("healthy fleet diverges from the oracle\n got %s\nwant %s", got, want)
	}
	cascade := cascadeOwnedBy(rt.Ring(), 0)
	code, ack := postRaw(t, base+"/v1/events", map[string]any{"events": []map[string]any{
		{"cascade": cascade, "node": 1, "time": 0.1},
		{"cascade": cascade, "node": 2, "time": 0.2},
		{"cascade": cascade, "node": 3, "time": 0.3},
	}})
	if code != http.StatusOK || decodeJSON(t, ack)["accepted"] != float64(3) {
		t.Fatalf("seed ingest: code %d body %s", code, ack)
	}
	waitFor(t, "follower to hold the acked events", 30*time.Second, func() bool {
		code, casc := getRaw(t, fts.URL+"/v1/cascades/"+strconv.Itoa(cascade))
		return code == http.StatusOK && decodeJSON(t, casc)["size"] == float64(3)
	})

	// Phase 2: SIGKILL the primary mid-ingest — a background writer is
	// hammering the router when the process dies, exactly the window
	// where a torn WAL tail and half-acked batches happen.
	stopIngest := make(chan struct{})
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		for node := 100; ; node++ {
			select {
			case <-stopIngest:
				return
			default:
			}
			payload, _ := json.Marshal(map[string]any{"cascade": cascade, "node": node, "time": 1.0})
			resp, err := http.Post(base+"/v1/events", "application/json", bytes.NewReader(payload))
			if err == nil {
				resp.Body.Close()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.Wait() //nolint:errcheck // the kill is the expected exit

	// The fleet must heal itself within the probe budget: suspect dwell
	// plus verify+promote plus one snapshot round, with generous slack
	// for race-detector scheduling — but bounded, and with zero manual
	// promotes.
	// Reads alone heal early through the follower-retry path; the full
	// bar is the completed promotion — the write path restored — plus a
	// non-partial global answer.
	healBudget := 20*probeEvery + failoverBudget
	start := time.Now()
	var healed []byte
	waitFor(t, "self-healed non-partial answer", healBudget, func() bool {
		if rt.metrics.failovers.Value() < 1 {
			return false
		}
		// k=12 is past the k=10 ranking phase 1 left in the router's
		// cache: a complete answer here was gathered from the healed fleet.
		code, body := getRaw(t, base+"/v1/influencers?k=12")
		if code != http.StatusOK {
			return false
		}
		got := decodeJSON(t, body)
		if got["partial"] == true {
			return false
		}
		healed = body
		return true
	})
	elapsed := time.Since(start)
	close(stopIngest)
	<-ingestDone
	if elapsed >= healBudget {
		t.Fatalf("healing took %v, past the %v budget", elapsed, healBudget)
	}
	codeO, direct = getRaw(t, oracle.URL+"/v1/influencers?k=12")
	if codeO != http.StatusOK {
		t.Fatalf("oracle: %d", codeO)
	}
	if got, want := rawField(t, healed, "influencers"), rawField(t, direct, "influencers"); !bytes.Equal(got, want) {
		t.Fatalf("healed fleet diverges from the oracle\n got %s\nwant %s", got, want)
	}
	if n := rt.metrics.failovers.Value(); n != 1 {
		t.Fatalf("router_failovers_total = %d, want exactly 1 (and zero manual promotes)", n)
	}
	_, fready := getRaw(t, fts.URL+"/readyz")
	fr := decodeJSON(t, fready)
	if fr["role"] != "primary" || fr["epoch"] != float64(1) {
		t.Fatalf("follower not promoted at epoch 1: %s", fready)
	}
	code, casc := getRaw(t, base+"/v1/cascades/"+strconv.Itoa(cascade))
	if code != http.StatusOK || decodeJSON(t, casc)["size"].(float64) < 3 {
		t.Fatalf("durably-acked events lost across failover: code %d body %s", code, casc)
	}

	// Phase 3: the zombie restarts on its old address with its old WAL
	// (including whatever torn tail the SIGKILL left). The router's
	// observation probes carry the new epoch; the zombie must latch
	// fenced and 409 both ingest and flush.
	rebind := strings.TrimPrefix(primaryURL, "http://")
	zombie := spawn(rebind, "addr2")
	zombieURL := awaitAddr("addr2")
	waitFor(t, "zombie to latch the fence", 30*time.Second, func() bool {
		code, zb := getRaw(t, zombieURL+"/readyz")
		return code == http.StatusOK && decodeJSON(t, zb)["fenced"] == true
	})
	code, rej := postRaw(t, zombieURL+"/v1/events", map[string]any{"cascade": cascade, "node": 9, "time": 0.9})
	if code != http.StatusConflict || decodeJSON(t, rej)["reason"] != "fenced" {
		t.Fatalf("fenced zombie accepted a write: code %d body %s", code, rej)
	}
	code, rej = postRaw(t, zombieURL+"/v1/flush", map[string]any{})
	if code != http.StatusConflict || decodeJSON(t, rej)["reason"] != "fenced" {
		t.Fatalf("fenced zombie accepted a flush: code %d body %s", code, rej)
	}
	_, mbody := getRaw(t, base+"/metrics")
	if m := decodeJSON(t, mbody); m["router_quarantined"] != float64(1) {
		t.Fatalf("router_quarantined = %v, want 1", m["router_quarantined"])
	}
	zombie.Process.Kill() //nolint:errcheck // test teardown
	zombie.Wait()         //nolint:errcheck // test teardown
}

// runPrimaryChild is the re-exec'd WAL-backed primary for the
// auto-failover test: shard 0 of 2, WAL under dir, listening on rebind
// (or an ephemeral port), address dropped atomically into addrFile.
func runPrimaryChild(t *testing.T, dir, rebind, addrFile string) {
	listen := rebind
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	srv, err := serve.New(serve.Config{
		Loader:  fixtureLoader(t),
		ShardID: 0, RingSize: 2,
		WALDir: filepath.Join(dir, "wal"),
	})
	if err != nil {
		t.Fatalf("child: %v", err)
	}
	addr, err := srv.Listen(listen)
	if err != nil {
		t.Fatalf("child: %v", err)
	}
	tmp := filepath.Join(dir, addrFile+".tmp")
	if err := os.WriteFile(tmp, []byte(addr.String()), 0o644); err != nil {
		t.Fatalf("child: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, addrFile)); err != nil {
		t.Fatalf("child: %v", err)
	}
	if err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("child: serve: %v", err)
	}
	t.Fatal("child primary outlived its SIGKILL")
}

// runShardChild is the re-exec'd shard: an ordinary sharded daemon on
// a real TCP listener, address dropped atomically for the parent, then
// serving until the parent SIGKILLs it.
func runShardChild(t *testing.T, dir string) {
	srv, err := serve.New(serve.Config{
		Loader: fixtureLoader(t), ShardID: 1, RingSize: 3,
	})
	if err != nil {
		t.Fatalf("child: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("child: %v", err)
	}
	tmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(addr.String()), 0o644); err != nil {
		t.Fatalf("child: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
		t.Fatalf("child: %v", err)
	}
	if err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("child: serve: %v", err)
	}
	t.Fatal("child shard outlived its SIGKILL")
}
