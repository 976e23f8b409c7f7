package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"viralcast/internal/router"
)

// TestCmdPromoteFailover is the failover an operator drives by hand and
// the one the router drives for them. Manual: a -wal-dir primary and a
// -follow follower, the primary stopped, `viralcast promote` → the
// follower is a writable primary serving the replicated prefix, a stale
// -epoch is refused as fenced and a higher one accepted. Supervised:
// `viralcast route -replicas-of … -auto-failover` promotes the follower
// itself, with no promote command anywhere.
func TestCmdPromoteFailover(t *testing.T) {
	cascades, model := modelFixture(t)
	dir := t.TempDir()

	t.Run("manual", func(t *testing.T) {
		primary := start(t, "primary", cmdServe, serveArgs(cascades, model, "-wal-dir", filepath.Join(dir, "wal-a"))...)
		want(t, 200, "POST", primary.base+"/v1/events",
			`{"events":[{"cascade":31337,"node":1,"time":0.05},{"cascade":31337,"node":2,"time":0.1},{"cascade":31337,"node":3,"time":0.2}]}`)
		// -wal-dir reaches the daemon: the acknowledged events were logged
		// and fsynced before the 200.
		m := want(t, 200, "GET", primary.base+"/metrics", "")
		if m["wal_enabled"] != true || m["wal_appends"].(float64) < 3 || m["wal_fsyncs"].(float64) < 1 ||
			m["wal_bytes"].(float64) <= 0 || m["wal_segments"].(float64) < 1 {
			t.Fatalf("wal_* metrics did not move: appends=%v fsyncs=%v bytes=%v segments=%v",
				m["wal_appends"], m["wal_fsyncs"], m["wal_bytes"], m["wal_segments"])
		}
		mirror := filepath.Join(dir, "wal-b")
		follower := start(t, "follower", cmdServe, serveArgs(cascades, model, "-wal-dir", mirror, "-follow", primary.base)...)
		waitCurrent(t, follower, 31337, 3)

		// -follow reaches the daemon: it is read-only and says where to write.
		ready := want(t, 200, "GET", follower.base+"/readyz", "")
		if ready["role"] != "follower" || ready["read_only"] != true || ready["primary"] != primary.base {
			t.Fatalf("follower /readyz: %v", ready)
		}
		rej := want(t, 409, "POST", follower.base+"/v1/events", `{"cascade":31337,"node":9,"time":0.9}`)
		if rej["reason"] != "follower" || rej["primary"] != primary.base {
			t.Fatalf("follower ingest rejection: %v", rej)
		}
		// The mirror is a first-class WAL for the offline tools.
		for _, args := range [][]string{{"inspect", "-dir", mirror, "-records"}, {"verify", "-dir", mirror}} {
			if out, err := captureStdout(t, func() error { return cmdWAL(args) }); err != nil {
				t.Fatalf("wal %v on the mirror: %v\n%s", args, err, out)
			}
		}

		primary.stop(t)
		out, err := captureStdout(t, func() error { return cmdPromote([]string{"-base", follower.base}) })
		if err != nil || !strings.Contains(out, "promoted: "+follower.base+" is now the primary at epoch 1") {
			t.Fatalf("promote: %v, printed %q", err, out)
		}
		if ready := want(t, 200, "GET", follower.base+"/readyz", ""); ready["role"] != "primary" || ready["epoch"] != float64(1) {
			t.Fatalf("promoted node /readyz: %v", ready)
		}
		// The replicated prefix is served and the duplicate guard came
		// with it: node 1 again is refused, node 7 lands.
		ack := want(t, 200, "POST", follower.base+"/v1/events",
			`{"events":[{"cascade":31337,"node":1,"time":0.05},{"cascade":31337,"node":7,"time":0.7}]}`)
		if ack["accepted"] != float64(1) {
			t.Fatalf("post-promotion ingest accepted %v, want 1", ack["accepted"])
		}
		if pred := want(t, 200, "GET", follower.base+"/v1/cascades/31337/predict", ""); pred["size"] != float64(4) {
			t.Fatalf("post-promotion cascade size %v, want 4", pred["size"])
		}

		// Re-running is a reported no-op; a replayed epoch is fenced; an
		// epoch above the node's own is an idempotent advance.
		out, err = captureStdout(t, func() error { return cmdPromote([]string{"-base", follower.base, "-epoch", "1"}) })
		if err == nil || !strings.Contains(err.Error(), "fenced") {
			t.Fatalf("promote -epoch 1 after epoch 1: %v, printed %q", err, out)
		}
		out, err = captureStdout(t, func() error { return cmdPromote([]string{"-base", follower.base, "-epoch", "5"}) })
		if err != nil || !strings.Contains(out, "at epoch 5") {
			t.Fatalf("promote -epoch 5: %v, printed %q", err, out)
		}
		if err := cmdPromote(nil); err == nil || !strings.Contains(err.Error(), "-base is required") {
			t.Fatalf("promote without -base: %v", err)
		}
		if err := cmdPromote([]string{"-base", primary.base, "-timeout", "2s"}); err == nil {
			t.Fatal("promote against a stopped daemon reported success")
		}
		// An unsharded daemon without a WAL has no promote endpoint.
		plain := start(t, "plain daemon", cmdServe, serveArgs(cascades, model)...)
		if err := cmdPromote([]string{"-base", plain.base}); err == nil {
			t.Fatal("promote against a daemon without -wal-dir reported success")
		}
	})

	t.Run("supervised", func(t *testing.T) {
		const ringSize = 2
		primaries := make([]*proc, ringSize)
		for i := range primaries {
			primaries[i] = start(t, fmt.Sprintf("primary %d", i), cmdServe, serveArgs(cascades, model,
				"-shard-id", fmt.Sprint(i), "-ring-size", fmt.Sprint(ringSize), "-wal-dir", filepath.Join(dir, fmt.Sprintf("af-p%d", i)))...)
		}
		follower := start(t, "follower 0", cmdServe, serveArgs(cascades, model,
			"-shard-id", "0", "-ring-size", fmt.Sprint(ringSize), "-wal-dir", filepath.Join(dir, "af-f0"), "-follow", primaries[0].base)...)
		rt := start(t, "router", cmdRoute,
			"-shards", primaries[0].base+","+primaries[1].base, "-replicas-of", "0="+follower.base,
			"-auto-failover", "-suspect-after", "2", "-probe-every", "50ms", "-request-timeout", "5s")

		id := firstOwnedBy(router.NewRing(ringSize), 0, 52000)
		ack := want(t, 200, "POST", rt.base+"/v1/events", fmt.Sprintf(
			`{"events":[{"cascade":%d,"node":1,"time":0.1},{"cascade":%d,"node":2,"time":0.2}]}`, id, id))
		if ack["accepted"] != float64(2) {
			t.Fatalf("routed ingest: %v", ack)
		}
		// Only a caught-up follower is promotable.
		waitCurrent(t, follower, id, 2)

		primaries[0].stop(t)
		var det map[string]any
		waitFor(t, "the router to fail shard 0 over", func() bool {
			ready := want(t, 200, "GET", rt.base+"/readyz", "")
			det, _ = ready["failure_detector"].(map[string]any)["shard-0"].(map[string]any)
			return ready["status"] == "ready" && det["failovers"] == float64(1) && det["state"] == "healthy"
		})
		if det["target"] != follower.base || det["quarantined"] != primaries[0].base {
			t.Fatalf("slot not rewritten: %v", det)
		}
		if ready := want(t, 200, "GET", follower.base+"/readyz", ""); ready["role"] != "primary" {
			t.Fatalf("follower after the failover: %v", ready)
		}

		// The epoch triangle through the router: what the promoted shard
		// stamps on a prediction is what the failure detector and the
		// shard_epochs gauge report.
		pred := want(t, 200, "GET", fmt.Sprintf("%s/v1/cascades/%d/predict", rt.base, id), "")
		m := want(t, 200, "GET", rt.base+"/metrics", "")
		if pred["size"] != float64(2) || pred["epoch"] != float64(1) || det["epoch"] != float64(1) ||
			m["shard_epochs"].(map[string]any)["shard-0"] != float64(1) {
			t.Fatalf("epochs disagree: prediction %v (size %v), detector %v, gauge %v",
				pred["epoch"], pred["size"], det["epoch"], m["shard_epochs"])
		}
		if m["router_failovers_total"] != float64(1) || m["router_quarantined"] != float64(1) {
			t.Fatalf("supervision metrics: failovers=%v quarantined=%v", m["router_failovers_total"], m["router_quarantined"])
		}
		// Whole again: a ranking that is not partial and is, byte for
		// byte, one unsharded daemon's; a write that lands.
		if got := want(t, 200, "GET", rt.base+"/v1/influencers?k=33", ""); got["partial"] == true {
			t.Fatalf("post-failover ranking still partial: %v", got["missing_shards"])
		}
		oracle := start(t, "oracle", cmdServe, serveArgs(cascades, model)...)
		routed, direct := rawField(t, rt.base+"/v1/influencers?k=33", "influencers"), rawField(t, oracle.base+"/v1/influencers?k=33", "influencers")
		if len(routed) == 0 || !bytes.Equal(routed, direct) {
			t.Fatalf("post-failover ranking diverges from the oracle\nrouted: %s\noracle: %s", routed, direct)
		}
		ack = want(t, 200, "POST", rt.base+"/v1/events", fmt.Sprintf(`{"cascade":%d,"node":3,"time":0.3}`, id))
		if ack["accepted"] != float64(1) || ack["partial"] == true {
			t.Fatalf("post-failover ingest: %v", ack)
		}
	})
}
