package router

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"viralcast/internal/httpkit"
)

// BenchmarkRouterFanout measures the router's per-request overhead on
// its routing regimes as the fleet grows: the scatter-gather merge
// (influencers — every shard answers, the router merges), the
// single-shard proxy (predict — one hop to the ring owner), and the
// owner-split scatter (events-64 — 64 events over 8 cascades sliced per
// owner; predict:batch-64 — 64 ids split per owner, slots spliced back
// in caller order), the shapes bench/'s fleet workload sends. The shard
// daemons serve from warm TTL caches, so the numbers isolate the
// routing layer — HTTP hops, fan-out scheduling, decode and merge —
// rather than shard compute. The router's own result cache is
// disabled (1ns TTL) for the same reason: a cached benchmark would
// measure map lookups, not fan-out.
func BenchmarkRouterFanout(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			f := newFleet(b, shards, nil)
			f.router.cache = httpkit.NewCache(time.Nanosecond, time.Now)

			// Predict needs live cascades: ingest one per ring arc
			// through the router so every shard owns some of them.
			const idBase, idCount = 51000, 16
			var sb strings.Builder
			sb.WriteString(`{"events":[`)
			for i := 0; i < idCount; i++ {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `{"cascade":%d,"node":1,"time":0.1},{"cascade":%d,"node":2,"time":0.2}`,
					idBase+i, idBase+i)
			}
			sb.WriteString(`]}`)
			resp, err := http.Post(f.url()+"/v1/events", "application/json", strings.NewReader(sb.String()))
			if err != nil {
				b.Fatal(err)
			}
			drain(b, resp, http.StatusOK)

			get := func(b *testing.B, url string) {
				resp, err := http.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				drain(b, resp, http.StatusOK)
			}

			b.Run("influencers", func(b *testing.B) {
				url := f.url() + "/v1/influencers?k=25"
				get(b, url) // warm the shard-side stripe caches
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					get(b, url)
				}
			})
			b.Run("predict", func(b *testing.B) {
				get(b, fmt.Sprintf("%s/v1/cascades/%d/predict", f.url(), idBase))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					get(b, fmt.Sprintf("%s/v1/cascades/%d/predict", f.url(), idBase+i%idCount))
				}
			})
			post := func(b *testing.B, path string, body []byte) {
				resp, err := http.Post(f.url()+path, "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				drain(b, resp, http.StatusOK)
			}
			b.Run("predict:batch-64", func(b *testing.B) {
				body := []byte(`{"cascades":[`)
				for i := 0; i < 64; i++ {
					if i > 0 {
						body = append(body, ',')
					}
					body = strconv.AppendInt(body, int64(idBase+i%idCount), 10)
				}
				body = append(body, "]}"...)
				post(b, "/v1/predict:batch", body) // warm the shards' slot caches
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					post(b, "/v1/predict:batch", body)
				}
			})
			b.Run("events-64", func(b *testing.B) {
				// Every iteration feeds 8 cascades nobody has seen (the SI
				// guard refuses a node twice), 8 events each.
				var body []byte
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					body = append(body[:0], `{"events":[`...)
					for ev := 0; ev < 64; ev++ {
						if ev > 0 {
							body = append(body, ',')
						}
						body = fmt.Appendf(body, `{"cascade":%d,"node":%d,"time":%g}`, 60000+8*i+ev/8, ev%8, 0.0125*float64(ev%8+1))
					}
					post(b, "/v1/events", append(body, "]}"...))
				}
			})
		})
	}
}

func drain(b *testing.B, resp *http.Response, want int) {
	b.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != want {
		b.Fatalf("status %d, want %d: %s", resp.StatusCode, want, body)
	}
}
