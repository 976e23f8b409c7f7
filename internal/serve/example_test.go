package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"viralcast"
	"viralcast/internal/core"
	"viralcast/internal/serve"
)

// Example_serving runs viralcastd in one process: persist a trained
// model as a nightly job would, serve it on a loopback port, stream a
// cascade's events in as they happen and watch its prediction evolve,
// read the cached influencer ranking, hot-reload the model, fold the
// live cascade back into it, and read the metrics. Ingestion goes
// through the write-ahead log, so a second daemon started on the same
// directory serves the streamed cascade without having seen its events.
func Example_serving() {
	const nodes, seed = 250, 7
	cs, err := viralcast.SimulateSBM(nodes, 500, 8, seed)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := viralcast.Train(cs, nodes, viralcast.TrainConfig{
		Topics: 3, MaxIter: 10, Workers: 4, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "viralcastd-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	modelPath, cascadePath := filepath.Join(dir, "model.txt"), filepath.Join(dir, "cascades.txt")
	writeFile(modelPath, sys.SaveEmbeddings)
	writeFile(cascadePath, func(w io.Writer) error { return viralcast.WriteCascades(w, cs) })
	loader, err := serve.FileLoader(serve.FileLoaderConfig{
		ModelPath: modelPath, TrainPath: cascadePath, Train: core.TrainConfig{Seed: seed},
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := serve.Config{Loader: loader, WALDir: filepath.Join(dir, "wal")}
	base, stop := start(cfg)

	// Replay the first six reports of a large simulated cascade as a
	// live story, asking for the prediction once it has two.
	story := cs[slices.IndexFunc(cs, func(c *viralcast.Cascade) bool { return c.Size() >= 8 })]
	const liveID = 424242
	var p struct {
		Viral       bool    `json:"viral"`
		Margin      float64 `json:"margin"`
		Size        int     `json:"size"`
		EarlyCutoff float64 `json:"early_cutoff"`
	}
	for i, inf := range story.Infections[:6] {
		call(base+"/v1/events", fmt.Sprintf(`{"cascade":%d,"node":%d,"time":%v}`, liveID, inf.Node, inf.Time), nil)
		if i >= 1 {
			call(fmt.Sprintf("%s/v1/cascades/%d/predict", base, liveID), "", &p)
			fmt.Printf("after %d events: viral=%v margin=%+.2f\n", p.Size, p.Viral, p.Margin)
		}
	}
	fmt.Printf("(early cutoff %.3f; the story reached %d nodes)\n", p.EarlyCutoff, story.Size())

	var inf struct {
		Cached      bool `json:"cached"`
		Influencers []struct {
			Node  int     `json:"Node"`
			Score float64 `json:"Score"`
		} `json:"influencers"`
	}
	call(base+"/v1/influencers?k=3", "", &inf)
	for i, r := range inf.Influencers {
		fmt.Printf("influencer %d: node %d (influence %.3f)\n", i+1, r.Node, r.Score)
	}
	call(base+"/v1/influencers?k=3", "", &inf)
	fmt.Printf("second ranking served from cache: %v\n", inf.Cached)

	var reply struct {
		Generation int `json:"generation"`
		Flushed    int `json:"flushed"`
	}
	call(base+"/v1/reload", "{}", &reply)
	fmt.Printf("hot-reloaded model: generation %d\n", reply.Generation)
	call(base+"/v1/flush", "{}", &reply)
	fmt.Printf("flushed %d live cascade into the model\n", reply.Flushed)
	var m map[string]any
	call(base+"/metrics", "", &m)
	fmt.Printf("metrics: events_ingested=%v model_generation=%v cache_hit_ratio=%.2f wal_appends=%v\n",
		m["events_ingested"], m["model_generation"], m["cache_hit_ratio"], m["wal_appends"])
	stop()

	base, stop = start(cfg)
	call(fmt.Sprintf("%s/v1/cascades/%d/predict", base, liveID), "", &p)
	call(base+"/metrics", "", &m)
	fmt.Printf("restarted on the same WAL: %v events replayed, story at %d nodes, viral=%v\n",
		m["wal_replayed_records"], p.Size, p.Viral)
	stop()
	// Output:
	// after 2 events: viral=false margin=-0.55
	// after 3 events: viral=true margin=+0.13
	// after 4 events: viral=true margin=+0.38
	// after 5 events: viral=true margin=+0.55
	// after 6 events: viral=true margin=+0.67
	// (early cutoff 2.286; the story reached 38 nodes)
	// influencer 1: node 40 (influence 2.109)
	// influencer 2: node 245 (influence 1.174)
	// influencer 3: node 249 (influence 0.947)
	// second ranking served from cache: true
	// hot-reloaded model: generation 2
	// flushed 1 live cascade into the model
	// metrics: events_ingested=6 model_generation=3 cache_hit_ratio=0.50 wal_appends=6
	// restarted on the same WAL: 6 events replayed, story at 6 nodes, viral=true
}

// start serves cfg on a loopback port and returns the base URL and a
// stop function that drains the daemon.
func start(cfg serve.Config) (string, func()) {
	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	return "http://" + addr.String(), func() {
		cancel()
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}
}

// call GETs url, or POSTs body to it when body is set, and decodes the
// JSON answer into out when out is non-nil.
func call(url, body string, out any) {
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %s", url, resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
