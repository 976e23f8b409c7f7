package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"viralcast/internal/repl"
	"viralcast/internal/wal"
	"viralcast/internal/wal/waltest"
)

// newFollowerServer builds a Server in the follower role, tailing the
// primary at primaryURL into a mirror under dir.
func newFollowerServer(t *testing.T, primaryURL, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Loader:         fixtureLoader(t),
		WALDir:         dir,
		FollowURL:      primaryURL,
		ReplBackoffMin: time.Millisecond,
		ReplBackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// waitRepl polls cond with a deadline generous enough for follower
// bootstrap and child-process startup under the race detector.
func waitRepl(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// cascadeSize reports a live cascade's infection count, 0 if absent.
func cascadeSize(s *Server, id int) int {
	c, ok := s.store.Snapshot(id)
	if !ok {
		return 0
	}
	return c.Size()
}

func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestFollowerReplicatesAndServes is the follower happy path over the
// full serve stack: bootstrap from a live primary, tail its ingest
// stream, serve identical predictions, reject local writes with the
// primary hint, and expose the repl_* metrics.
func TestFollowerReplicatesAndServes(t *testing.T) {
	pdir := t.TempDir()
	psrv, pts := newWALServer(t, pdir)
	for i := 1; i <= 6; i++ {
		if code := postEvent(t, pts.URL, 4242, i, float64(i)/10); code != http.StatusOK {
			t.Fatalf("primary ingest %d: status %d", i, code)
		}
	}

	fsrv, fts := newFollowerServer(t, pts.URL, t.TempDir())
	waitRepl(t, "follower bootstrap", func() bool { return cascadeSize(fsrv, 4242) == 6 })

	// Live tail: new primary events appear on the follower.
	for i := 7; i <= 10; i++ {
		if code := postEvent(t, pts.URL, 4242, i, float64(i)/10); code != http.StatusOK {
			t.Fatalf("primary ingest %d: status %d", i, code)
		}
	}
	// State included: lag 0 is reached while the follower still says
	// "syncing", and the metrics assertion below wants "current".
	waitRepl(t, "follower tail", func() bool {
		st, _ := fsrv.replStatus()
		return cascadeSize(fsrv, 4242) == 10 && st.LagRecords == 0 && st.State == repl.StateCurrent
	})

	// Identical predictions: same model generation, same replicated
	// cascade — the full response bodies must match byte for byte.
	codeP, bodyP := getRaw(t, pts.URL+"/v1/cascades/4242/predict")
	codeF, bodyF := getRaw(t, fts.URL+"/v1/cascades/4242/predict")
	if codeP != http.StatusOK || codeF != http.StatusOK {
		t.Fatalf("predict: primary %d, follower %d", codeP, codeF)
	}
	if !bytes.Equal(bodyP, bodyF) {
		t.Fatalf("follower prediction differs from primary:\n%s\nvs\n%s", bodyF, bodyP)
	}

	// Local writes are rejected with a machine-readable re-route.
	code, body := postJSON(t, fts.URL+"/v1/events", map[string]any{"cascade": 1, "node": 2, "time": 0.5})
	if code != http.StatusConflict || body["reason"] != "follower" || body["primary"] != pts.URL {
		t.Fatalf("follower ingest: code %d body %v", code, body)
	}
	code, body = postJSON(t, fts.URL+"/v1/flush", nil)
	if code != http.StatusConflict || body["reason"] != "follower" {
		t.Fatalf("follower flush: code %d body %v", code, body)
	}

	// Lag and reconnect metrics are visible, and readyz reports the role
	// and replication state load balancers key on.
	_, m := getJSON(t, fts.URL+"/metrics")
	if m["repl_role"] != "follower" || m["repl_state"] != "current" {
		t.Fatalf("follower metrics: role=%v state=%v", m["repl_role"], m["repl_state"])
	}
	for _, k := range []string{"repl_lag_records", "repl_lag_seconds", "repl_reconnects"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("metric %q missing from follower /metrics", k)
		}
	}
	code, ready := getJSON(t, fts.URL+"/readyz")
	if code != http.StatusOK || ready["role"] != "follower" || ready["replication"] != "current" || ready["read_only"] != true {
		t.Fatalf("follower readyz: code %d body %v", code, ready)
	}
	code, ready = getJSON(t, pts.URL+"/readyz")
	if code != http.StatusOK || ready["role"] != "primary" {
		t.Fatalf("primary readyz: code %d body %v", code, ready)
	}
	_ = psrv
}

// TestFollowerTailLatency: one event acknowledged by the primary after
// the follower is current must be visible on the follower within a
// second. Both daemons run their full middleware chain (Handler()), so
// the stream handler sees the instrumented ResponseWriter: if that
// wrapper hides http.Flusher, frames and heartbeats wait in net/http's
// buffer for ~8 s while the follower keeps reporting the stale lag 0 a
// failover check would trust.
func TestFollowerTailLatency(t *testing.T) {
	_, pts := newWALServer(t, t.TempDir())
	fsrv, _ := newFollowerServer(t, pts.URL, t.TempDir())
	waitRepl(t, "follower current", func() bool {
		st, _ := fsrv.replStatus()
		return st.State == repl.StateCurrent && st.LagRecords == 0
	})

	if code := postEvent(t, pts.URL, 5151, 1, 0.1); code != http.StatusOK {
		t.Fatalf("primary ingest: status %d", code)
	}
	acked := time.Now()
	for cascadeSize(fsrv, 5151) != 1 {
		if time.Since(acked) > time.Second {
			t.Fatalf("event acknowledged by the primary not on the caught-up follower after %v", time.Since(acked))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerUnservableGates503s: a follower that has never completed
// a bootstrap (its primary is unreachable) must answer the data plane
// with 503/replication, while readyz stays diagnostic.
func TestFollowerUnservableGates503s(t *testing.T) {
	fsrv, fts := newFollowerServer(t, "http://127.0.0.1:1", t.TempDir())
	code, body := getJSON(t, fts.URL+"/v1/cascades/1")
	if code != http.StatusServiceUnavailable || body["reason"] != "replication" {
		t.Fatalf("unservable follower read: code %d body %v", code, body)
	}
	code, body = getJSON(t, fts.URL+"/readyz")
	if code != http.StatusOK || body["status"] != "replicating" {
		t.Fatalf("unservable follower readyz: code %d body %v", code, body)
	}
	_, m := getJSON(t, fts.URL+"/metrics")
	if m["repl_servable"] != false {
		t.Fatalf("repl_servable = %v, want false", m["repl_servable"])
	}
	_ = fsrv
}

// TestFollowerUnservableUntilBootstrapApplied holds the bootstrap
// stream after its first few hundred bytes, so the follower has applied
// some of the records the primary held when the stream opened but not
// all: the data plane answers 503/replication and readyz "replicating"
// until the rest arrive, and then the follower serves them.
func TestFollowerUnservableUntilBootstrapApplied(t *testing.T) {
	_, pts := newWALServer(t, t.TempDir())
	const id, n = 4343, 20
	for i := 1; i <= n; i++ {
		if code := postEvent(t, pts.URL, id, i, float64(i)/10); code != http.StatusOK {
			t.Fatalf("primary ingest %d: status %d", i, code)
		}
	}
	release := make(chan struct{})
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, pts.URL+r.URL.RequestURI(), nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		fw := flushWriter{w}
		if r.URL.Path == repl.StreamPath {
			io.CopyN(fw, resp.Body, 200)
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
		}
		io.Copy(fw, resp.Body)
	}))
	t.Cleanup(proxy.Close)
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	fsrv, fts := newFollowerServer(t, proxy.URL, t.TempDir())
	waitRepl(t, "some bootstrap records applied", func() bool { return cascadeSize(fsrv, id) > 0 })
	if got := cascadeSize(fsrv, id); got >= n {
		t.Fatalf("held stream delivered all %d records", got)
	}
	if st, _ := fsrv.replStatus(); st.Servable || st.State != repl.StateBootstrapping {
		t.Fatalf("partway through the bootstrap: status %+v, want unservable and bootstrapping", st)
	}
	code, body := getJSON(t, fts.URL+fmt.Sprintf("/v1/cascades/%d", id))
	if code != http.StatusServiceUnavailable || body["reason"] != "replication" {
		t.Fatalf("read partway through the bootstrap: code %d body %v", code, body)
	}
	if code, body := getJSON(t, fts.URL+"/readyz"); code != http.StatusOK || body["status"] != "replicating" {
		t.Fatalf("readyz partway through the bootstrap: code %d body %v", code, body)
	}

	once.Do(func() { close(release) })
	waitRepl(t, "follower servable", func() bool {
		st, _ := fsrv.replStatus()
		return st.Servable
	})
	if got := cascadeSize(fsrv, id); got != n {
		t.Fatalf("servable with %d of %d bootstrap records applied", got, n)
	}
	code, body = getJSON(t, fts.URL+fmt.Sprintf("/v1/cascades/%d", id))
	if code != http.StatusOK {
		t.Fatalf("read after the bootstrap: code %d body %v", code, body)
	}
}

// flushWriter flushes every write through, as the stream handler does
// at the tip, so a proxied stream reaches the follower as it is copied.
type flushWriter struct{ http.ResponseWriter }

func (w flushWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.ResponseWriter.(http.Flusher).Flush()
	return n, err
}

// TestPromoteRacingInFlightApply promotes a follower while the primary
// is ingesting at full tilt — the promotion must serialize with the
// apply loop (no torn state under -race), flip the role, and leave the
// promoted node ingesting durably on its own WAL.
func TestPromoteRacingInFlightApply(t *testing.T) {
	pdir := t.TempDir()
	_, pts := newWALServer(t, pdir)
	fdir := t.TempDir()
	fsrv, fts := newFollowerServer(t, pts.URL, fdir)
	waitRepl(t, "follower servable", func() bool {
		st, _ := fsrv.replStatus()
		return st.Servable
	})

	// Hammer the primary with ingest while the promotion runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			postEventErr(pts.URL, 300+i%3, 1+i/3, float64(1+i)/100)
		}
	}()
	// Let some replication traffic flow, then promote mid-stream.
	waitRepl(t, "some replicated events", func() bool { return cascadeSize(fsrv, 300) > 0 })
	code, body := postJSON(t, fts.URL+"/v1/promote", nil)
	close(stop)
	wg.Wait()
	if code != http.StatusOK || body["promoted"] != true || body["role"] != "primary" {
		t.Fatalf("promote: code %d body %v", code, body)
	}

	// The promoted node is a writable primary now.
	if code := postEvent(t, fts.URL, 777, 1, 0.1); code != http.StatusOK {
		t.Fatalf("ingest on promoted node: status %d", code)
	}
	code, ready := getJSON(t, fts.URL+"/readyz")
	if code != http.StatusOK || ready["role"] != "primary" || ready["read_only"] != false {
		t.Fatalf("promoted readyz: code %d body %v", code, ready)
	}
	_, m := getJSON(t, fts.URL+"/metrics")
	if m["repl_role"] != "primary" || m["repl_promotions"].(float64) != 1 {
		t.Fatalf("promoted metrics: role=%v promotions=%v", m["repl_role"], m["repl_promotions"])
	}
	// Idempotent: promoting a primary is a no-op.
	code, body = postJSON(t, fts.URL+"/v1/promote", nil)
	if code != http.StatusOK || body["promoted"] != false {
		t.Fatalf("re-promote: code %d body %v", code, body)
	}
	// And its events are durable: they survive into a restart replay.
	if err := fsrv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, _ := newWALServer(t, fdir)
	if got := cascadeSize(srv2, 777); got != 1 {
		t.Fatalf("promoted node's post-promotion event did not survive restart: size %d", got)
	}
}

// postEventErr is postEvent for phases where the peer may die
// mid-request: transport errors come back instead of failing the test.
func postEventErr(base string, cascade, node int, tm float64) (int, error) {
	body, _ := json.Marshal(map[string]any{"cascade": cascade, "node": node, "time": tm})
	resp, err := http.Post(base+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestReplKillPromote is the two-process chaos acceptance test: a
// child process runs the primary with a durable WAL and an armed
// hard-kill (os.Exit between fsync-ack and response, the PR-3
// harness); the parent runs a real follower against it, ingests a
// durably-acknowledged prefix — waiting for replication to reach lag 0
// after each wave — then drives the primary into its kill, promotes
// the follower, and asserts the promoted node serves exactly that
// acked prefix: byte-identical predictions to a control fed the same
// events.
func TestReplKillPromote(t *testing.T) {
	const crashEnv = "VIRALCAST_REPL_CRASH_DIR"
	const kill = 10 // commits that reach durability before the crash
	if dir := os.Getenv(crashEnv); dir != "" {
		runReplKillChild(t, dir, kill)
		return
	}
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestReplKillPromote$", "-test.v")
	cmd.Env = append(os.Environ(), crashEnv+"="+dir)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// The child writes its listen address once it is serving.
	addrFile := filepath.Join(dir, "addr")
	var primaryURL string
	waitRepl(t, "child primary address", func() bool {
		b, err := os.ReadFile(addrFile)
		if err != nil || len(b) == 0 {
			return false
		}
		primaryURL = "http://" + strings.TrimSpace(string(b))
		return true
	})

	fdir := t.TempDir()
	fsrv, fts := newFollowerServer(t, primaryURL, fdir)

	// Acked waves: kill-1 events, each its own commit, each waited onto
	// the follower before the next — so every one of them is both
	// durably acknowledged by the primary AND replicated.
	acked := killRecoverEvents(kill - 1)
	for i, ev := range acked {
		code, err := postEventErr(primaryURL, ev.Cascade, ev.Node, ev.Time)
		if err != nil || code != http.StatusOK {
			t.Fatalf("acked wave event %d: code %d err %v\nchild output:\n%s", i, code, err, childOut.String())
		}
		want := i + 1
		waitRepl(t, fmt.Sprintf("replication of acked event %d", i), func() bool {
			return cascadeSize(fsrv, 600)+cascadeSize(fsrv, 601) == want
		})
	}

	// Killer wave on a separate cascade: the kill-th commit becomes
	// durable and the primary hard-kills itself before answering, so
	// this event is never acknowledged and nothing asserts about it.
	for i := 0; i < 50; i++ {
		code, err := postEventErr(primaryURL, 700, 1+i, float64(1+i)/10)
		if err != nil || code != http.StatusOK {
			break // the primary died mid-request, as intended
		}
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 86 {
		t.Fatalf("child did not hard-kill itself with code 86: err=%v\n%s", err, childOut.String())
	}

	// Promote the orphaned follower.
	code, body := postJSON(t, fts.URL+"/v1/promote", nil)
	if code != http.StatusOK || body["promoted"] != true || body["epoch"].(float64) != 1 {
		t.Fatalf("promote after primary death: code %d body %v", code, body)
	}

	// Control: a fresh server fed exactly the acked prefix, with its
	// fencing epoch advanced to match the promoted node's so the
	// prediction bodies (which carry the epoch) stay byte-comparable.
	ctrl, err := New(Config{Loader: fixtureLoader(t), WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Promote(1); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	tsCtrl := httptest.NewServer(ctrl.Handler())
	defer tsCtrl.Close()
	for i, ev := range acked {
		if code := postEvent(t, tsCtrl.URL, ev.Cascade, ev.Node, ev.Time); code != http.StatusOK {
			t.Fatalf("control ingest %d: status %d", i, code)
		}
	}

	// Every durable-acked event survives on the promoted node, and its
	// predictions are byte-identical to the control's.
	for _, id := range []int{600, 601} {
		if got, want := cascadeSize(fsrv, id), cascadeSize(ctrl, id); got != want {
			t.Fatalf("cascade %d: promoted node has %d infections, control has %d", id, got, want)
		}
		codeP, bodyP := getRaw(t, fts.URL+fmt.Sprintf("/v1/cascades/%d/predict", id))
		codeC, bodyC := getRaw(t, tsCtrl.URL+fmt.Sprintf("/v1/cascades/%d/predict", id))
		if codeP != http.StatusOK || codeC != http.StatusOK {
			t.Fatalf("predict %d: promoted %d, control %d", id, codeP, codeC)
		}
		if !bytes.Equal(bodyP, bodyC) {
			t.Fatalf("cascade %d: promoted prediction differs from control:\n%s\nvs\n%s", id, bodyP, bodyC)
		}
	}
	// The promoted node ingests durably on its own log now.
	if code := postEvent(t, fts.URL, 601, 120, 0.99); code != http.StatusOK {
		t.Fatalf("ingest on promoted node: status %d", code)
	}
}

// runReplKillChild is the re-exec'd primary: durable WAL on the
// inherited directory, real TCP listener (address dropped next to the
// WAL), and a hard-kill armed right after the kill-th commit reaches
// durability.
func runReplKillChild(t *testing.T, dir string, kill int) {
	var disk waltest.Disk
	srv, err := New(Config{Loader: fixtureLoader(t), WALDir: filepath.Join(dir, "wal"), walOpts: wal.Options{WrapFile: disk.Wrap}})
	if err != nil {
		t.Fatalf("child: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("child: %v", err)
	}
	// The follower bootstraps by streaming the log, which costs the
	// primary no fsync: the kill-th sync from here is the kill-th
	// commit's.
	disk.ExitAfterSync(kill, 86)
	// Atomic drop of the address file: the parent polls for it.
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
	t.Fatal("child survived the stream; the hard-kill never fired")
}

// BenchmarkReplicatedIngest measures primary ingest latency and
// group-commit throughput with and without a live follower tailing the
// WAL stream — the replication-overhead numbers in EXPERIMENTS.md.
// Replication is asynchronous pull, so the follower's cost on the
// ingest path is only the extra read traffic on the primary.
func BenchmarkReplicatedIngest(b *testing.B) {
	for _, followers := range []int{0, 1} {
		b.Run(fmt.Sprintf("followers=%d", followers), func(b *testing.B) {
			benchReplicatedIngest(b, followers)
		})
	}
}

func benchReplicatedIngest(b *testing.B, followers int) {
	srv, err := New(Config{Loader: fixtureLoader(b), WALDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var fsrv *Server
	if followers > 0 {
		fsrv, err = New(Config{
			Loader:         fixtureLoader(b),
			WALDir:         b.TempDir(),
			FollowURL:      ts.URL,
			ReplBackoffMin: time.Millisecond,
			ReplBackoffMax: 20 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer fsrv.Close()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st, ok := fsrv.replStatus(); ok && st.Servable {
				break
			}
			if time.Now().After(deadline) {
				b.Fatal("follower never became servable")
			}
			time.Sleep(time.Millisecond)
		}
	}

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unique (cascade, node) pairs inside the model's 150-node
		// universe; each POST is one durable group commit.
		start := time.Now()
		code, err := postEventErr(ts.URL, 9000+i/150, i%150, float64(i%150+1)/10)
		if err != nil || code != http.StatusOK {
			b.Fatalf("ingest %d: code %d err %v", i, code, err)
		}
		lat = append(lat, time.Since(start))
	}
	elapsed := b.Elapsed()
	b.StopTimer()

	sortDurations(lat)
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(lat)-1))
		return float64(lat[idx]) / float64(time.Millisecond)
	}
	b.ReportMetric(quantile(0.50), "p50-ms")
	b.ReportMetric(quantile(0.99), "p99-ms")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "events/s")

	if fsrv != nil {
		// Drain outside the timed region so the follower's apply cost
		// never pollutes the primary-side numbers, and assert it really
		// replicated the benchmark traffic.
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, _ := fsrv.replStatus()
			if st.LagRecords == 0 && st.State == repl.StateCurrent {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("follower never drained: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
