package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"viralcast/internal/core"
)

// newShardServer builds one member of a simulated fleet over the shared
// fixture model: same data as every sibling, restricted to its stripe.
func newShardServer(t *testing.T, shardID, ringSize int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Loader:   fixtureLoader(t),
		ShardID:  shardID,
		RingSize: ringSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestShardConfigValidation(t *testing.T) {
	loader := fixtureLoader(t)
	for _, bad := range []Config{
		{Loader: loader, RingSize: -1},
		{Loader: loader, RingSize: 3, ShardID: -1},
		{Loader: loader, RingSize: 3, ShardID: 3},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("Config{ShardID: %d, RingSize: %d} accepted; want validation error", bad.ShardID, bad.RingSize)
		}
	}
	srv, err := New(Config{Loader: loader, RingSize: 3, ShardID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.ShardID(); got != 2 {
		t.Fatalf("ShardID() = %d, want 2", got)
	}
	// The zero value stays a plain unsharded daemon reporting -1.
	solo, err := New(Config{Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if got := solo.ShardID(); got != -1 {
		t.Fatalf("unsharded ShardID() = %d, want -1", got)
	}
}

// fetchInfluencers decodes the typed response body so merging and
// comparisons operate on []core.Influencer, exactly as the router does.
func fetchInfluencers(t *testing.T, base string, k int) influencersResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/influencers?k=%d", base, k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/influencers: %d %s", resp.StatusCode, body)
	}
	var out influencersResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding influencers response: %v (%s)", err, body)
	}
	return out
}

// TestShardedInfluencersMergeToOracle is the serving half of the
// sharding lemma: each fleet member ranks only its stripe, and merging
// the per-shard answers reproduces the unsharded oracle's ranking.
func TestShardedInfluencersMergeToOracle(t *testing.T) {
	const ringSize = 3
	_, oracleTS := newTestServer(t)
	bases := make([]string, ringSize)
	for i := 0; i < ringSize; i++ {
		_, ts := newShardServer(t, i, ringSize)
		bases[i] = ts.URL
	}
	for _, k := range []int{1, 5, 40} {
		want := fetchInfluencers(t, oracleTS.URL, k).Influencers
		parts := make([][]core.Influencer, ringSize)
		for i, base := range bases {
			part := fetchInfluencers(t, base, k).Influencers
			lo, hi := i*fixtureNodes/ringSize, (i+1)*fixtureNodes/ringSize
			for _, inf := range part {
				if inf.Node < lo || inf.Node >= hi {
					t.Fatalf("k=%d: shard %d returned node %d outside stripe [%d,%d)", k, i, inf.Node, lo, hi)
				}
			}
			parts[i] = part
		}
		got := core.MergeTopInfluencers(k, parts...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: merged shard rankings diverge from the unsharded oracle\n got %v\nwant %v", k, got, want)
		}
	}
}

func TestReadyzAndMetricsExposeShardIdentity(t *testing.T) {
	_, shardTS := newShardServer(t, 1, 3)
	status, ready := getJSON(t, shardTS.URL+"/readyz")
	if status != http.StatusOK {
		t.Fatalf("readyz: %d", status)
	}
	if got := ready["shard_id"]; got != float64(1) {
		t.Fatalf("readyz shard_id = %v, want 1", got)
	}
	if got := ready["ring_size"]; got != float64(3) {
		t.Fatalf("readyz ring_size = %v, want 3", got)
	}
	_, metrics := getJSON(t, shardTS.URL+"/metrics")
	if got := metrics["shard_id"]; got != float64(1) {
		t.Fatalf("metrics shard_id = %v, want 1", got)
	}
	if got := metrics["ring_size"]; got != float64(3) {
		t.Fatalf("metrics ring_size = %v, want 3", got)
	}

	// An unsharded daemon publishes the same keys with the sentinel
	// values, so the router can tell "not a fleet member" apart from
	// "fleet member zero".
	_, soloTS := newTestServer(t)
	_, soloReady := getJSON(t, soloTS.URL+"/readyz")
	if got := soloReady["shard_id"]; got != float64(-1) {
		t.Fatalf("unsharded readyz shard_id = %v, want -1", got)
	}
	if got := soloReady["ring_size"]; got != float64(0) {
		t.Fatalf("unsharded readyz ring_size = %v, want 0", got)
	}
}

func TestPredictResponseCarriesShardID(t *testing.T) {
	_, ts := newShardServer(t, 2, 3)
	ingestEvents(t, ts.URL, 42, 3)
	status, pred := getJSON(t, ts.URL+"/v1/cascades/42/predict")
	if status != http.StatusOK {
		t.Fatalf("predict: %d (%v)", status, pred)
	}
	if got := pred["shard_id"]; got != float64(2) {
		t.Fatalf("predict shard_id = %v, want 2", got)
	}
}
