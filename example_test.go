package viralcast_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sort"

	"viralcast"
	"viralcast/internal/gdelt"
	"viralcast/internal/scenario"
)

// Example_quickstart is the library's whole lifecycle: fit the
// embeddings, persist and reload them, refit them online from the
// reloaded model once fresh cascades arrive, then train the virality
// predictor and classify held-out cascades from their early adopters
// alone. The simulated cascades stand in for observed ones
// (viralcast.ReadCascades).
func Example_quickstart() {
	const nodes, seed = 400, 42
	cs, err := viralcast.SimulateSBM(nodes, 500, 10, seed)
	if err != nil {
		log.Fatal(err)
	}
	historical, fresh, heldOut := cs[:300], cs[300:400], cs[400:]
	sys, err := viralcast.Train(historical, nodes, viralcast.TrainConfig{
		Topics: 4, MaxIter: 20, Workers: 4, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d cascades: %d communities at the base level\n",
		len(historical), sys.Partition.NumCommunities())

	var store bytes.Buffer // stands in for a file or an object store
	if err := sys.SaveEmbeddings(&store); err != nil {
		log.Fatal(err)
	}
	saved := store.Len()
	loaded, err := viralcast.LoadSystem(&store, viralcast.TrainConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved %d bytes, reloaded %d nodes\n", saved, loaded.N)

	// The online update refits every cascade seen, fresh ones included.
	seen := cs[:400]
	before := loaded.Embeddings.LogLikAll(fresh)
	if err := loaded.Update(seen); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online update on %d fresh cascades: log-likelihood %.1f -> %.1f\n",
		len(fresh), before, loaded.Embeddings.LogLikAll(fresh))

	// Viral = final size in the top 20 %; the predictor sees only the
	// reports made by the default early cutoff.
	threshold := viralcast.TopSizeThreshold(seen, 0.2)
	early := viralcast.DefaultEarlyCutoff(seen)
	pred, err := loaded.TrainPredictor(seen, early, threshold)
	if err != nil {
		log.Fatal(err)
	}
	conf, err := pred.Evaluate(heldOut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("viral means >= %d reports, early means by t = %.3f\n", threshold, early)
	fmt.Printf("held-out accuracy %.3f, precision %.3f, recall %.3f, F1 %.3f\n",
		conf.Accuracy(), conf.Precision(), conf.Recall(), conf.F1())

	viral, margin, err := pred.PredictViral(heldOut[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cascade %d: viral=%v (margin %+.2f), actual size %d\n",
		heldOut[0].ID, viral, margin, heldOut[0].Size())
	// Output:
	// trained on 300 cascades: 10 communities at the base level
	// saved 70727 bytes, reloaded 400 nodes
	// online update on 100 fresh cascades: log-likelihood -5431.6 -> -4246.5
	// viral means >= 36 reports, early means by t = 2.857
	// held-out accuracy 0.830, precision 0.591, recall 0.619, F1 0.605
	// cascade 400: viral=false (margin -1.06), actual size 26
}

// Example_seeding asks the inverse question, whom to hand a story so
// that it spreads (influence maximization, the paper's reference [11]).
// CELF picks seeds greedily on the fitted embeddings by expected direct
// coverage; the top-ranked influencers are the naive alternative. The
// Monte Carlo engine then replays whole cascades from both sets,
// multi-hop spread included, under the same horizon.
func Example_seeding() {
	const (
		nodes, seed     = 400, 33
		budget, horizon = 5, 1.0
	)
	cs, err := viralcast.SimulateSBM(nodes, 600, 10, seed)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := viralcast.Train(cs, nodes, viralcast.TrainConfig{
		Topics: 4, MaxIter: 20, Workers: 4, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	picks, err := sys.SelectSeeds(budget, horizon)
	if err != nil {
		log.Fatal(err)
	}
	var celf, top []int
	fmt.Println("celf picks (node, marginal gain, expected coverage):")
	for _, s := range picks {
		fmt.Printf("  node %3d  %+6.1f  %6.1f\n", s.Node, s.Gain, s.Total)
		celf = append(celf, s.Node)
	}
	for _, inf := range sys.TopInfluencers(budget) {
		top = append(top, inf.Node)
	}

	eng, err := scenario.New(sys.Embeddings, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background(), scenario.Spec{
		SeedSets: []scenario.SeedSet{{Name: "celf", Nodes: celf}, {Name: "top influencers", Nodes: top}},
		Trials:   100, Horizon: horizon, BaseSeed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("horizon %g, %d simulated trials a set:\n", res.Horizon, res.Trials)
	for _, set := range res.Sets {
		cov, err := sys.ExpectedCoverage(set.Seeds, horizon)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s %v  expected coverage %.1f, simulated reach mean %.1f, range [%d, %d]\n",
			set.Name, set.Seeds, cov, set.Reach.Mean, set.Reach.Min, set.Reach.Max)
	}
	// Simulated reach counts multi-hop spread, which expected (direct)
	// coverage leaves out; by it, the two sets are a draw at this horizon.
	fmt.Printf("celf's simulated win rate against the top influencers: %.2f (ties count half)\n",
		res.WinRate[0][1])
	// Output:
	// celf picks (node, marginal gain, expected coverage):
	//   node 161   +56.9    56.9
	//   node 127   +38.9    95.8
	//   node 158   +36.6   132.4
	//   node 336   +27.5   159.9
	//   node  29   +20.9   180.8
	// horizon 1, 100 simulated trials a set:
	// celf            [161 127 158 336 29]  expected coverage 180.8, simulated reach mean 372.9, range [357, 386]
	// top influencers [161 158 127 29 259]  expected coverage 168.9, simulated reach mean 372.3, range [354, 388]
	// celf's simulated win rate against the top influencers: 0.50 (ties count half)
}

// Example_influencers is the paper's second application: rank nodes by
// inferred influence without ever seeing the propagation network, then
// check the top of the ranking against the data, by how many reports
// follow a node's own on average.
func Example_influencers() {
	const nodes, seed = 400, 11
	cs, err := viralcast.SimulateSBM(nodes, 600, 10, seed)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := viralcast.Train(cs, nodes, viralcast.TrainConfig{
		Topics: 4, MaxIter: 20, Workers: 4, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	followers := make([]int, nodes)   // reports after the node's, summed
	appearances := make([]int, nodes) // cascades the node appears in
	var totF, totA int
	for _, c := range cs {
		for i, inf := range c.Infections {
			appearances[inf.Node]++
			followers[inf.Node] += c.Size() - i - 1
			totA++
			totF += c.Size() - i - 1
		}
	}
	fmt.Println("rank  node  influence  topic  cascades  avg-followers")
	for i, inf := range sys.TopInfluencers(8) {
		fmt.Printf("%4d  %4d  %9.3f  %5d  %8d  %13.1f\n", i+1, inf.Node, inf.Score, inf.TopTopic,
			appearances[inf.Node], float64(followers[inf.Node])/float64(appearances[inf.Node]))
	}
	fmt.Printf("population average followers per appearance: %.1f\n", float64(totF)/float64(totA))
	// Output:
	// rank  node  influence  topic  cascades  avg-followers
	//    1   172      1.121      0        34           17.1
	//    2    91      0.814      3        30           19.5
	//    3   139      0.778      3        39           16.5
	//    4   109      0.753      0        30           15.5
	//    5    44      0.611      3        48           26.8
	//    6    11      0.585      2        30           15.6
	//    7   192      0.287      2        38           20.1
	//    8    33      0.279      3        30           19.6
	// population average followers per appearance: 17.1
}

// Example_newsVirality is the paper's motivating workload on the
// synthetic GDELT-like corpus: news sites in regional pools report
// events; fit site embeddings on the older 70 % of events and predict
// which newer ones are reported widely from their first five hours of
// coverage alone (§VI-B).
func Example_newsVirality() {
	cfg := gdelt.DefaultConfig()
	cfg.Sites, cfg.Events, cfg.CrossLinks = 1200, 1500, 180 // the paper has 6,000 sites
	cfg.Seed = 7
	corpus, err := gdelt.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	durations, within50 := corpus.EventDurations(), 0
	for _, d := range durations {
		if d <= 50 {
			within50++
		}
	}
	counts := corpus.ReportCounts()
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	fmt.Printf("%d sites, %d events; %d%% of those reported twice or more end within 50 h\n",
		len(corpus.Sites), len(corpus.Events), 100*within50/len(durations))
	fmt.Printf("reports by the most active site: %d; by the 100th: %d (the Matthew effect)\n",
		counts[0], counts[99])

	split := len(corpus.Events) * 7 / 10
	train, test := corpus.Events[:split], corpus.Events[split:]
	sys, err := viralcast.Train(train, cfg.Sites, viralcast.TrainConfig{
		Topics: 4, MaxIter: 15, Workers: 4, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	threshold := viralcast.TopSizeThreshold(train, 0.2)
	pred, err := sys.TrainPredictor(train, 5.0, threshold)
	if err != nil {
		log.Fatal(err)
	}
	conf, err := pred.Evaluate(test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("viral = reported by >= %d sites: accuracy %.3f, F1 %.3f\n",
		threshold, conf.Accuracy(), conf.F1())
	for _, event := range test[:5] {
		viral, margin, err := pred.PredictViral(event)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("event %d: %d reporting sites in the first 5 h -> viral=%v (margin %+.2f); %d in all\n",
			event.ID, event.Prefix(5.0).Size(), viral, margin, event.Size())
	}
	// Output:
	// 1200 sites, 1500 events; 100% of those reported twice or more end within 50 h
	// reports by the most active site: 168; by the 100th: 42 (the Matthew effect)
	// viral = reported by >= 18 sites: accuracy 0.849, F1 0.622
	// event 1050: 1 reporting sites in the first 5 h -> viral=false (margin -1.40); 1 in all
	// event 1051: 1 reporting sites in the first 5 h -> viral=false (margin -0.77); 1 in all
	// event 1052: 5 reporting sites in the first 5 h -> viral=true (margin +0.16); 77 in all
	// event 1053: 1 reporting sites in the first 5 h -> viral=false (margin -0.73); 1 in all
	// event 1054: 3 reporting sites in the first 5 h -> viral=false (margin -0.22); 14 in all
}
