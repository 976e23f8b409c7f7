// Package gdelt provides a synthetic stand-in for the GDELT news-event
// dataset the paper analyzes (§II, §VI-B). The real GDELT corpus (tens of
// thousands of news sites, millions of events, fetched through Google
// BigQuery) is not redistributable here, so this package generates a
// dataset with the same schema — (site, event, report-time) triples —
// engineered to exhibit the three statistical properties the paper
// measures on the real data:
//
//  1. short event life cycles: most reporting happens within the first
//     ~50 hours of an event (paper §II "Emergence of news events");
//  2. regional locality: sites belong to regional communities (US,
//     Australia, UK/Europe, and a mixed pool) and most cascades stay
//     within one region (paper Figures 1-2);
//  3. the Matthew effect: events-reported-per-site follows a power law
//     (paper Figure 3).
//
// Reporting cascades are simulated with the same continuous-time
// propagation model used everywhere else in this repository, driven by a
// planted ground-truth influence/selectivity embedding, so the full
// inference and prediction pipeline runs on this data exactly as it
// would on the real corpus.
package gdelt

import (
	"fmt"
	"math"
	"sort"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
	"viralcast/internal/graph"
	"viralcast/internal/xrand"
)

// Region describes one regional pool of news sites. Each region owns a
// contiguous slice of the latent topic space (regional stories); sites in
// a Mixed region may cover topics from any region (international outlets).
type Region struct {
	Name     string
	Language string
	Share    float64 // fraction of all sites in this region
	// Mixed regions draw coverage across the whole topic space instead of
	// the region's own slice.
	Mixed bool
}

// Config parameterizes dataset generation.
type Config struct {
	Sites       int     // number of news sites (paper §VI-B uses 6,000)
	Events      int     // number of news events to simulate
	Topics      int     // latent topic count (>= number of regions)
	ZipfS       float64 // popularity exponent for the Matthew effect
	WindowHours float64 // observation window per event (paper: 3 days)
	MeanDegree  float64 // average co-reporting degree inside a region
	CrossLinks  int     // wire-service links between top sites of regions
	// RateScale multiplies every planted hazard rate. The default is
	// calibrated to a near-critical spreading regime, which yields the
	// heavy-tailed cascade sizes real news events show — most events stay
	// tiny, a few go viral.
	RateScale float64
	// ResponseMu and ResponseSigma shape the lognormal spread of site
	// response speeds: selectivity magnitudes are drawn as
	// exp(Normal(ResponseMu, ResponseSigma)). A large sigma puts a heavy
	// fast tail on responses (wire copy within the hour) while most
	// outlets take a day or more — which is what makes the first hours of
	// coverage informative for virality prediction.
	ResponseMu, ResponseSigma float64
	// StalenessHours caps how long after an event breaks that any site
	// will still report it — the paper's §II observation that "a news
	// site would prefer not to report an event which is considered
	// out-of-date" and that most events finish within ~50 hours.
	// Spreading stops at min(WindowHours, StalenessHours).
	StalenessHours float64
	Seed           uint64
	Regions        []Region
}

// DefaultConfig mirrors the paper's GDELT experiment scale, shrunk only
// in raw event count (the paper samples 2,600 events for prediction and
// 5,000 for clustering; pick Events accordingly).
func DefaultConfig() Config {
	return Config{
		Sites:          6000,
		Events:         2600,
		Topics:         40,
		ZipfS:          1.05,
		WindowHours:    72,
		MeanDegree:     18,
		CrossLinks:     900,
		RateScale:      0.12,
		ResponseMu:     -2.0, // -sigma^2/2 keeps the mean response multiplier at 1
		ResponseSigma:  2.0,
		StalenessHours: 46,
		Regions: []Region{
			{Name: "us", Language: "en", Share: 0.40},
			{Name: "au", Language: "en", Share: 0.15},
			{Name: "uk-eu", Language: "mixed-eu", Share: 0.25},
			{Name: "mixed", Language: "mixed", Share: 0.20, Mixed: true},
		},
	}
}

// TopicPool returns the half-open topic range [lo, hi) owned by region
// ri: the topic space is split contiguously across regions in order.
// Mixed regions still own a slice (their "home" stories) but their sites
// may cover any topic.
func (c Config) TopicPool(ri int) (lo, hi int) {
	nr := len(c.Regions)
	lo = ri * c.Topics / nr
	hi = (ri + 1) * c.Topics / nr
	if hi <= lo {
		hi = lo + 1
	}
	if hi > c.Topics {
		hi = c.Topics
	}
	return lo, hi
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.Sites <= 0 || c.Events < 0 {
		return fmt.Errorf("gdelt: need positive Sites and non-negative Events, got %d, %d", c.Sites, c.Events)
	}
	if c.Topics <= 0 {
		return fmt.Errorf("gdelt: Topics must be positive, got %d", c.Topics)
	}
	if len(c.Regions) == 0 {
		return fmt.Errorf("gdelt: no regions configured")
	}
	if c.Topics < len(c.Regions) {
		return fmt.Errorf("gdelt: %d topics cannot cover %d regions", c.Topics, len(c.Regions))
	}
	var share float64
	for _, r := range c.Regions {
		if r.Share <= 0 {
			return fmt.Errorf("gdelt: region %q has non-positive share", r.Name)
		}
		share += r.Share
	}
	if math.Abs(share-1) > 1e-9 {
		return fmt.Errorf("gdelt: region shares sum to %v, want 1", share)
	}
	if c.WindowHours <= 0 {
		return fmt.Errorf("gdelt: WindowHours must be positive, got %v", c.WindowHours)
	}
	if c.MeanDegree <= 0 {
		return fmt.Errorf("gdelt: MeanDegree must be positive, got %v", c.MeanDegree)
	}
	return nil
}

// Site is one news outlet.
type Site struct {
	ID         int
	Name       string
	Region     int     // index into Config.Regions
	Popularity float64 // latent popularity weight (power-law distributed)
}

// Dataset is a generated corpus.
type Dataset struct {
	Config Config
	Sites  []Site
	// Events holds one reporting cascade per news event; infection times
	// are hours since the event's first report.
	Events []*cascade.Cascade
	// Truth is the planted embedding that generated the cascades.
	Truth *embed.Model
	// Graph is the co-reporting substrate the simulation spread on.
	Graph *graph.Graph
}

// Generate builds a synthetic dataset.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	ds := &Dataset{Config: cfg}
	ds.Sites = makeSites(cfg, rng)
	ds.Truth = makeTruth(cfg, ds.Sites, rng)
	g, err := makeGraph(cfg, ds.Sites, rng)
	if err != nil {
		return nil, err
	}
	ds.Graph = g
	effWindow := cfg.WindowHours
	if cfg.StalenessHours > 0 && cfg.StalenessHours < effWindow {
		effWindow = cfg.StalenessHours
	}
	sim, err := cascade.NewSimulator(g, ds.Truth.A, ds.Truth.B, effWindow)
	if err != nil {
		return nil, err
	}
	// Seed events at sites proportionally to log-damped popularity: big
	// outlets break stories more often, but the Pareto tail must not make
	// one outlet the seed of half the corpus.
	cum := make([]float64, len(ds.Sites))
	var total float64
	for i, s := range ds.Sites {
		total += math.Log(1 + s.Popularity)
		cum[i] = total
	}
	for ev := 0; ev < cfg.Events; ev++ {
		u := rng.Float64() * total
		seed := sort.SearchFloat64s(cum, u)
		if seed >= len(ds.Sites) {
			seed = len(ds.Sites) - 1
		}
		c, err := sim.Run(ev, seed, rng)
		if err != nil {
			return nil, err
		}
		ds.Events = append(ds.Events, c)
	}
	return ds, nil
}

// makeSites assigns regions round-robin by share and draws power-law
// popularity weights.
func makeSites(cfg Config, rng *xrand.RNG) []Site {
	sites := make([]Site, cfg.Sites)
	// Deterministic region layout: contiguous blocks per share (keeps the
	// regional community structure obvious and reproducible).
	idx := 0
	for ri, r := range cfg.Regions {
		count := int(math.Round(r.Share * float64(cfg.Sites)))
		if ri == len(cfg.Regions)-1 {
			count = cfg.Sites - idx
		}
		for j := 0; j < count && idx < cfg.Sites; j++ {
			sites[idx] = Site{
				ID:     idx,
				Name:   fmt.Sprintf("news%05d.%s", idx, r.Name),
				Region: ri,
			}
			idx++
		}
	}
	for i := range sites {
		// Pareto weights give the Matthew-effect heavy tail.
		sites[i].Popularity = rng.Pareto(1, cfg.ZipfS)
	}
	return sites
}

// makeTruth plants the ground-truth embedding with *sparse topic
// coverage*: every site covers a small set of topics — at least one from
// its region's pool, more for popular sites (log of popularity), and
// international hubs / mixed-region sites add topics from other regions'
// pools. A pair of sites interacts only on shared covered topics, so
// each event effectively spreads on the percolation subgraph of sites
// covering its topic(s). Coverage sparsity places that subgraph near the
// percolation threshold, producing the heavy-tailed cascade sizes of
// real news: most events stay small, hub-seeded multi-topic events go
// viral. Per-shared-topic rates are fast (hours), so reporting finishes
// within the first ~2 days, matching §II.
func makeTruth(cfg Config, sites []Site, rng *xrand.RNG) *embed.Model {
	m := embed.NewModel(cfg.Sites, cfg.Topics)
	scale := cfg.RateScale
	if scale <= 0 {
		scale = 1
	}
	// Per-shared-topic hazard: mean transmission delay ~6h between two
	// median sites covering the same topic.
	const pairRate = 1.0 / 6.0
	aBase := math.Sqrt(pairRate) * scale
	bBase := math.Sqrt(pairRate)
	mu, sigma := cfg.ResponseMu, cfg.ResponseSigma
	if sigma <= 0 {
		mu, sigma = -0.6, 1.2
	}
	// Hub threshold: the top decile of popularity gains foreign coverage.
	pops := make([]float64, len(sites))
	for i, s := range sites {
		pops[i] = s.Popularity
	}
	sort.Float64s(pops)
	hubCut := pops[len(pops)*9/10]
	for i, s := range sites {
		r := cfg.Regions[s.Region]
		lo, hi := cfg.TopicPool(s.Region)
		poolLo, poolHi := lo, hi
		if r.Mixed {
			poolLo, poolHi = 0, cfg.Topics
		}
		poolSize := poolHi - poolLo
		// Coverage count grows logarithmically with popularity.
		c := 1 + int(0.8*math.Log(1+s.Popularity))
		if c > poolSize {
			c = poolSize
		}
		covered := map[int]bool{}
		for len(covered) < c {
			covered[poolLo+rng.Intn(poolSize)] = true
		}
		// Half the international hubs also pick up one foreign topic — the
		// wire-service channel that occasionally lets a story jump
		// regions without erasing Figure 2's regional block structure.
		if s.Popularity >= hubCut && !r.Mixed && rng.Bernoulli(0.5) {
			covered[rng.Intn(cfg.Topics)] = true
		}
		// Selectivity magnitudes spread over ~2 orders of magnitude
		// (lognormal): some outlets repost within hours, many take days
		// and often miss the story entirely — the temporal heterogeneity
		// that keeps the spreading process near criticality instead of
		// deterministically flooding each topic's subgraph. Topics are
		// visited in sorted order so RNG consumption is deterministic.
		topics := make([]int, 0, len(covered))
		for k := range covered {
			topics = append(topics, k)
		}
		sort.Ints(topics)
		for _, k := range topics {
			m.A.Set(i, k, aBase*(0.5+rng.Float64()))
			m.B.Set(i, k, bBase*math.Exp(rng.Norm(mu, sigma)))
		}
	}
	return m
}

// makeGraph wires the co-reporting substrate: random intra-region links
// with popularity-preferential attachment plus cross-region "wire
// service" links between the most popular sites of different regions.
func makeGraph(cfg Config, sites []Site, rng *xrand.RNG) (*graph.Graph, error) {
	var edges []graph.Edge
	// Group sites by region and build per-region popularity CDFs so
	// endpoints are drawn preferentially.
	byRegion := make([][]int, len(cfg.Regions))
	for _, s := range sites {
		byRegion[s.Region] = append(byRegion[s.Region], s.ID)
	}
	addUndirected := func(u, v int) {
		if u == v {
			return
		}
		// Duplicate adds just accumulate weight, harmless for spreading.
		edges = append(edges, graph.Edge{From: u, To: v, Weight: 1}, graph.Edge{From: v, To: u, Weight: 1})
	}
	for _, members := range byRegion {
		if len(members) < 2 {
			continue
		}
		cum := make([]float64, len(members))
		var total float64
		for i, id := range members {
			// Log-damped preferential attachment: hubs get high degree
			// without a single outlet wiring up half the region.
			total += math.Log(1 + sites[id].Popularity)
			cum[i] = total
		}
		pick := func() int {
			u := rng.Float64() * total
			i := sort.SearchFloat64s(cum, u)
			if i >= len(members) {
				i = len(members) - 1
			}
			return members[i]
		}
		edges := int(cfg.MeanDegree * float64(len(members)) / 2)
		for e := 0; e < edges; e++ {
			// One uniformly random endpoint, one popularity-weighted: a
			// simple preferential-attachment flavor.
			addUndirected(members[rng.Intn(len(members))], pick())
		}
	}
	// Cross-region wire links between top-popularity sites.
	if len(cfg.Regions) > 1 && cfg.CrossLinks > 0 {
		tops := make([][]int, len(byRegion))
		for ri, members := range byRegion {
			sorted := append([]int(nil), members...)
			sort.Slice(sorted, func(a, b int) bool {
				return sites[sorted[a]].Popularity > sites[sorted[b]].Popularity
			})
			n := len(sorted) / 10
			if n < 1 {
				n = len(sorted)
			}
			tops[ri] = sorted[:n]
		}
		for e := 0; e < cfg.CrossLinks; e++ {
			r1 := rng.Intn(len(tops))
			r2 := rng.Intn(len(tops))
			if r1 == r2 || len(tops[r1]) == 0 || len(tops[r2]) == 0 {
				continue
			}
			addUndirected(tops[r1][rng.Intn(len(tops[r1]))], tops[r2][rng.Intn(len(tops[r2]))])
		}
	}
	return graph.FromEdges(cfg.Sites, edges)
}

// EventDurations returns the reporting duration (hours between first and
// last report) of every event with at least two reports.
func (ds *Dataset) EventDurations() []float64 {
	var out []float64
	for _, e := range ds.Events {
		if e.Size() >= 2 {
			out = append(out, e.Duration())
		}
	}
	return out
}

// ReportCounts returns the number of events each site reported.
func (ds *Dataset) ReportCounts() []int {
	counts := make([]int, ds.Config.Sites)
	for _, e := range ds.Events {
		for _, inf := range e.Infections {
			counts[inf.Node]++
		}
	}
	return counts
}

// Backbone builds the co-reporting backbone (paper Figure 2): sites that
// reported at least minShared events together are linked, with the
// shared-event count as edge weight.
func (ds *Dataset) Backbone(minShared int) (*graph.Graph, error) {
	if minShared < 1 {
		return nil, fmt.Errorf("gdelt: minShared must be >= 1, got %d", minShared)
	}
	pair := map[[2]int]int{}
	for _, e := range ds.Events {
		nodes := e.Nodes()
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				u, v := nodes[i], nodes[j]
				if u > v {
					u, v = v, u
				}
				pair[[2]int{u, v}]++
			}
		}
	}
	var edges []graph.Edge
	for p, cnt := range pair {
		if cnt >= minShared {
			w := float64(cnt)
			edges = append(edges, graph.Edge{From: p[0], To: p[1], Weight: w}, graph.Edge{From: p[1], To: p[0], Weight: w})
		}
	}
	return graph.FromEdges(ds.Config.Sites, edges)
}

// SampleEvents returns n events drawn without replacement (all events if
// n exceeds the corpus).
func (ds *Dataset) SampleEvents(n int, rng *xrand.RNG) []*cascade.Cascade {
	if n >= len(ds.Events) {
		return append([]*cascade.Cascade(nil), ds.Events...)
	}
	perm := rng.Perm(len(ds.Events))
	out := make([]*cascade.Cascade, n)
	for i := 0; i < n; i++ {
		out[i] = ds.Events[perm[i]]
	}
	return out
}

// RegionOf returns the region index of a site id.
func (ds *Dataset) RegionOf(site int) int { return ds.Sites[site].Region }
