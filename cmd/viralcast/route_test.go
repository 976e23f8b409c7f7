package main

import (
	"bytes"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"viralcast/internal/router"
)

func TestParseShards(t *testing.T) {
	for _, c := range []struct {
		shards, replicas string
		want             []router.Shard
		wantErr          string // substring; "" = must parse
	}{
		{shards: "a:1, http://b:2/ ,https://c:3//", want: []router.Shard{
			{Primary: "http://a:1"}, {Primary: "http://b:2"}, {Primary: "https://c:3"}}},
		{shards: "a:1,b:2", replicas: "1=f:9/, 0 = http://g:8", want: []router.Shard{
			{Primary: "http://a:1", Follower: "http://g:8"}, {Primary: "http://b:2", Follower: "http://f:9"}}},
		{shards: "a:1", replicas: " , ", want: []router.Shard{{Primary: "http://a:1"}}},
		{shards: "", wantErr: "-shards is required"},
		{shards: "a:1,,b:2", wantErr: `-shards entry 1 ("")`},
		{shards: "a:1", replicas: "f:9", wantErr: "is not i=url"},
		{shards: "a:1", replicas: "1=f:9", wantErr: "outside fleet [0, 1)"},
		{shards: "a:1", replicas: "x=f:9", wantErr: "outside fleet"},
		{shards: "a:1", replicas: "0=f:9,0=g:8", wantErr: "two followers"},
		// Empty once the scheme is added and the slashes trimmed: at the
		// parent these routed to the target "http:".
		{shards: "http://", wantErr: `-shards entry 0 ("http://")`},
		{shards: "a:1, / ", wantErr: "-shards entry 1"},
		{shards: "a:1", replicas: "0=", wantErr: `-replicas-of entry 0 ("0=")`},
		{shards: "a:1,b:2", replicas: "1=f:9,0= ", wantErr: `-replicas-of entry 1 ("0=")`},
		{shards: "a:1", replicas: "0=http:///", wantErr: "-replicas-of entry 0"},
	} {
		got, err := parseShards(c.shards, c.replicas)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("parseShards(%q, %q): %v", c.shards, c.replicas, err)
		case c.wantErr == "" && !reflect.DeepEqual(got, c.want):
			t.Errorf("parseShards(%q, %q) = %+v, want %+v", c.shards, c.replicas, got, c.want)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("parseShards(%q, %q) = %+v, %v; want an error naming %q", c.shards, c.replicas, got, err, c.wantErr)
		}
	}
}

// TestCmdRouteEndToEnd runs the fleet an operator would: three sharded
// daemons and `viralcast route` in front, an unsharded daemon on the
// same model as the oracle. Routed ingest must land on the ring owner,
// the merged ranking must be the oracle's bytes, and with one shard
// gone the router must say so: degraded, partial, never cached.
func TestCmdRouteEndToEnd(t *testing.T) {
	cascades, model := modelFixture(t)
	const ringSize = 3
	shards := make([]*proc, ringSize)
	urls := make([]string, ringSize)
	for i := range shards {
		shards[i] = start(t, fmt.Sprintf("shard %d", i), cmdServe,
			serveArgs(cascades, model, "-shard-id", fmt.Sprint(i), "-ring-size", fmt.Sprint(ringSize))...)
		urls[i] = shards[i].base
		// -shard-id / -ring-size reach the daemon: /readyz is the identity
		// the router's probe verifies.
		ready := want(t, 200, "GET", urls[i]+"/readyz", "")
		if ready["shard_id"] != float64(i) || ready["ring_size"] != float64(ringSize) {
			t.Fatalf("shard %d reports identity %v/%v", i, ready["shard_id"], ready["ring_size"])
		}
	}
	oracle := start(t, "oracle", cmdServe, serveArgs(cascades, model)...)
	rt := start(t, "router", cmdRoute,
		"-shards", strings.Join(urls, ","), "-request-timeout", "5s", "-probe-every", "50ms")

	if hz := want(t, 200, "GET", rt.base+"/healthz", ""); hz["role"] != "router" {
		t.Fatalf("router /healthz: %v", hz)
	}
	waitFor(t, "the router to see three healthy shards", func() bool {
		ready := want(t, 200, "GET", rt.base+"/readyz", "")
		return ready["status"] == "ready" && ready["shards_healthy"] == float64(ringSize)
	})

	// One batch through the router; the ring splits it.
	const idBase, idCount = 41000, 30
	var evs []string
	for id := idBase; id < idBase+idCount; id++ {
		for node := 1; node <= 3; node++ {
			evs = append(evs, fmt.Sprintf(`{"cascade":%d,"node":%d,"time":0.%d}`, id, node, node))
		}
	}
	ack := want(t, 200, "POST", rt.base+"/v1/events", `{"events":[`+strings.Join(evs, ",")+`]}`)
	if ack["accepted"] != float64(len(evs)) || ack["partial"] == true {
		t.Fatalf("routed ingest: %v", ack)
	}
	ring := router.NewRing(ringSize)
	hit := map[int]bool{}
	for id := idBase; id < idBase+idCount; id++ {
		pred := want(t, 200, "GET", fmt.Sprintf("%s/v1/cascades/%d/predict", rt.base, id), "")
		owner := ring.Owner(id)
		if pred["shard_id"] != float64(owner) || pred["size"] != float64(3) {
			t.Fatalf("cascade %d answered by shard %v with size %v, ring owner is %d", id, pred["shard_id"], pred["size"], owner)
		}
		hit[owner] = true
	}
	if len(hit) < 2 {
		t.Fatalf("all %d cascades landed on one shard", idCount)
	}

	// Same scores, same order, same bytes as one daemon.
	routed, direct := rawField(t, rt.base+"/v1/influencers?k=10", "influencers"), rawField(t, oracle.base+"/v1/influencers?k=10", "influencers")
	if len(routed) == 0 || !bytes.Equal(routed, direct) {
		t.Fatalf("routed ranking diverges from the oracle\nrouted: %s\noracle: %s", routed, direct)
	}

	// Shard 1 goes away. Ask past the cached k: the answer has to be
	// computed, so it has to be partial — and say which shard is missing.
	shards[1].stop(t)
	waitFor(t, "the router to report degraded", func() bool {
		ready := want(t, 200, "GET", rt.base+"/readyz", "")
		return ready["status"] == "degraded" && ready["shards_healthy"] == float64(ringSize-1)
	})
	for pass := 0; pass < 2; pass++ {
		got := want(t, 200, "GET", rt.base+"/v1/influencers?k=29", "")
		if got["partial"] != true || !reflect.DeepEqual(got["missing_shards"], []any{"shard-1"}) || got["cached"] == true {
			t.Fatalf("pass %d: ranking during the outage: partial=%v missing_shards=%v cached=%v",
				pass, got["partial"], got["missing_shards"], got["cached"])
		}
		if infl, _ := got["influencers"].([]any); len(infl) == 0 {
			t.Fatalf("pass %d: partial ranking is empty", pass)
		}
	}
	m := want(t, 200, "GET", rt.base+"/metrics", "")
	if m["partial_results"].(float64) < 1 || m["shard_health"].(map[string]any)["shard-1"] != false {
		t.Fatalf("router metrics during the outage: partial_results=%v shard_health=%v", m["partial_results"], m["shard_health"])
	}
	// The router publishes the shared request tree whole: its histogram
	// has counted every request its endpoint counters have.
	sum := func(tree any) (n float64) {
		for _, v := range tree.(map[string]any) {
			n += v.(float64)
		}
		return n
	}
	if lat, _ := m["latency_ms"].(map[string]any); len(lat) != 6 || sum(lat) != sum(m["requests"]) {
		t.Fatalf("router latency_ms = %v, requests = %v", m["latency_ms"], m["requests"])
	}
	code, body := call(t, "GET", fmt.Sprintf("%s/v1/cascades/%d", rt.base, firstOwnedBy(ring, 1, idBase)), "")
	if code != http.StatusBadGateway || !bytes.Contains(body, []byte("shard-1")) {
		t.Fatalf("read owned by the dead shard = %d %s, want 502 naming shard-1", code, body)
	}
	rt.stop(t)
}

// firstOwnedBy returns the first cascade id at or after from that the
// ring places on shard.
func firstOwnedBy(ring *router.Ring, shard, from int) int {
	for ring.Owner(from) != shard {
		from++
	}
	return from
}
