// Newsvirality reproduces the paper's motivating workload end to end on
// the synthetic GDELT-like corpus: thousands of news sites in regional
// pools report events; we fit site embeddings from historical events and
// predict which fresh events will be reported globally — from only their
// first five hours of coverage.
//
// Run with: go run ./examples/newsvirality
package main

import (
	"fmt"
	"log"
	"sort"

	"viralcast"
	"viralcast/internal/gdelt"
)

func main() {
	cfg := gdelt.DefaultConfig()
	// Shrink from the paper's 6,000 sites so the example runs in seconds.
	cfg.Sites = 1200
	cfg.Events = 1500
	cfg.CrossLinks = 180
	cfg.Seed = 7
	corpus, err := gdelt.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d sites, %d events\n", len(corpus.Sites), len(corpus.Events))

	// Corpus facts the paper reports in §II.
	durations := corpus.EventDurations()
	within50 := 0
	for _, d := range durations {
		if d <= 50 {
			within50++
		}
	}
	fmt.Printf("events finishing within 50h: %.0f%%\n",
		100*float64(within50)/float64(len(durations)))
	counts := corpus.ReportCounts()
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	fmt.Printf("most active site reported %d events; 100th most active %d (Matthew effect)\n",
		counts[0], counts[99])

	// Train on the first 70% of events, evaluate on the rest.
	split := len(corpus.Events) * 7 / 10
	train, test := corpus.Events[:split], corpus.Events[split:]
	sys, err := viralcast.Train(train, cfg.Sites, viralcast.TrainConfig{
		Topics:  4,
		MaxIter: 15,
		Workers: 4,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Viral = the top 20% most-reported events; the predictor sees the
	// first 5 hours of coverage (the paper's §VI-B setting).
	threshold := viralcast.TopSizeThreshold(train, 0.2)
	pred, err := sys.TrainPredictor(train, 5.0, threshold)
	if err != nil {
		log.Fatal(err)
	}
	conf, err := pred.Evaluate(test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("viral-event prediction (>= %d reporting sites): accuracy %.3f, F1 %.3f\n",
		threshold, conf.Accuracy(), conf.F1())

	// Show a few concrete calls.
	shown := 0
	for _, event := range test {
		viral, margin, err := pred.PredictViral(event)
		if err != nil {
			continue
		}
		fmt.Printf("  event %4d: first-5h reporters=%2d -> predicted viral=%5v (margin %+.2f), actual reports=%d\n",
			event.ID, event.Prefix(5.0).Size(), viral, margin, event.Size())
		shown++
		if shown == 5 {
			break
		}
	}
}
