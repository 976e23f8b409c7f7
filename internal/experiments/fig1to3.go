package experiments

import (
	"fmt"
	"sort"
	"strings"

	"viralcast/internal/cascade"
	"viralcast/internal/cluster"
	"viralcast/internal/gdelt"
	"viralcast/internal/report"
	"viralcast/internal/stats"
	"viralcast/internal/xrand"
)

// Figure1Result reproduces Figure 1: the Ward-linkage dendrogram of
// sampled news-event cascades under the Jaccard distance of their
// reporting-site sets, annotated with the Ward distance and cascade
// count of the top inner nodes, plus the purity of the flat regional
// clustering (the paper's observation that the clusters correspond to
// the US / Australia / UK-Europe site pools).
type Figure1Result struct {
	Sampled   int
	TopMerges []cluster.Merge
	// Dendro is the full merge tree, rendered a few levels deep by
	// Render.
	Dendro *cluster.Dendrogram
	// ClusterSizes of the flat cut at the number of regions.
	ClusterSizes []int
	// RegionPurity is the fraction of cascades whose flat cluster matches
	// the majority home region of that cluster (computed from each
	// cascade's modal reporting region, ties to the lowest region id).
	RegionPurity float64
}

// Figure1 clusters `sample` cascades from the corpus (the paper samples
// 5,000).
func Figure1(ds *gdelt.Dataset, sample int, seed uint64) (*Figure1Result, error) {
	events := ds.SampleEvents(sample, xrand.New(seed))
	// Drop trivial cascades: singleton reporting sets make Jaccard
	// degenerate and the paper's sample is of real multi-site events.
	kept := events[:0]
	for _, e := range events {
		if e.Size() >= 2 {
			kept = append(kept, e)
		}
	}
	if len(kept) < 10 {
		return nil, fmt.Errorf("experiments: only %d usable cascades for clustering", len(kept))
	}
	d := cluster.Ward(cluster.CascadeDistances(kept))
	res := &Figure1Result{Sampled: len(kept), Dendro: d}
	res.TopMerges = d.TopMerges(8)
	k := len(ds.Config.Regions)
	labels, err := d.Cut(k)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, k)
	// Majority home region per cluster.
	regionVotes := make([]map[int]int, k)
	for i := range regionVotes {
		regionVotes[i] = map[int]int{}
	}
	for i, e := range kept {
		sizes[labels[i]]++
		regionVotes[labels[i]][modalRegion(ds, e)]++
	}
	res.ClusterSizes = sizes
	agree := 0
	for cl := 0; cl < k; cl++ {
		best := 0
		for _, c := range regionVotes[cl] {
			if c > best {
				best = c
			}
		}
		agree += best
	}
	res.RegionPurity = float64(agree) / float64(len(kept))
	return res, nil
}

// modalRegion is the region most of c's reports come from; a tie goes to
// the lowest region id, so the answer never depends on map order.
func modalRegion(ds *gdelt.Dataset, c *cascade.Cascade) int {
	counts := map[int]int{}
	for _, inf := range c.Infections {
		counts[ds.RegionOf(inf.Node)]++
	}
	best, bestC := 0, -1
	for r, n := range counts {
		if n > bestC || (n == bestC && r < best) {
			best, bestC = r, n
		}
	}
	return best
}

// Render gives the terminal rendition of Figure 1.
func (r *Figure1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — Ward dendrogram of %d news-event cascades (Jaccard distance)\n", r.Sampled)
	b.WriteString("top inner nodes (Ward distance , cascades in cluster):\n")
	for _, m := range r.TopMerges {
		fmt.Fprintf(&b, "  %.1f , %d\n", m.Height, m.Size)
	}
	if r.Dendro != nil {
		b.WriteString("dendrogram (top levels):\n")
		b.WriteString(r.Dendro.RenderDendrogram(4))
	}
	fmt.Fprintf(&b, "flat cut cluster sizes: %v\n", r.ClusterSizes)
	fmt.Fprintf(&b, "cluster-vs-region purity: %.3f (paper: clusters correspond to regions)\n", r.RegionPurity)
	return b.String()
}

// Figure2Result reproduces Figure 2: the backbone network of news sites
// that co-reported at least MinShared events, with its regional block
// structure quantified.
type Figure2Result struct {
	MinShared     int
	Nodes, Edges  int
	Components    int
	IntraRegional float64 // fraction of backbone edges inside one region
}

// Figure2 builds the co-reporting backbone.
func Figure2(ds *gdelt.Dataset, minShared int) (*Figure2Result, error) {
	bb, err := ds.Backbone(minShared)
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{MinShared: minShared}
	active := map[int]bool{}
	same, cross := 0, 0
	for _, e := range bb.Edges() {
		active[e.From] = true
		active[e.To] = true
		if ds.RegionOf(e.From) == ds.RegionOf(e.To) {
			same++
		} else {
			cross++
		}
	}
	res.Nodes = len(active)
	res.Edges = bb.M() / 2 // backbone is symmetric
	if same+cross > 0 {
		res.IntraRegional = float64(same) / float64(same+cross)
	}
	_, res.Components = bb.ConnectedComponents()
	return res, nil
}

// Render gives the terminal rendition of Figure 2.
func (r *Figure2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — co-reporting backbone (pairs sharing >= %d events)\n", r.MinShared)
	fmt.Fprintf(&b, "active sites: %d, edges: %d, connected components: %d\n", r.Nodes, r.Edges, r.Components)
	fmt.Fprintf(&b, "intra-regional edge fraction: %.3f (paper: regional clusters dominate)\n", r.IntraRegional)
	return b.String()
}

// Figure3Result reproduces Figure 3: the histogram of events reported
// per site on log-spaced bins, with the fitted power-law exponent — the
// Matthew effect.
type Figure3Result struct {
	Bins  []stats.Bin
	Alpha float64 // MLE power-law exponent over the tail
	// MinCount mirrors the paper's cutoff (sites reporting fewer events
	// are ignored).
	MinCount int
}

// Figure3 histograms per-site report counts. minCount mirrors the
// paper's >= 5,000-events cutoff, scaled to the synthetic corpus.
func Figure3(ds *gdelt.Dataset, minCount, bins int) (*Figure3Result, error) {
	counts := ds.ReportCounts()
	var xs []float64
	for _, c := range counts {
		if c >= minCount && c > 0 {
			xs = append(xs, float64(c))
		}
	}
	if len(xs) < 10 {
		return nil, fmt.Errorf("experiments: only %d sites above cutoff %d", len(xs), minCount)
	}
	hist, err := stats.LogHistogram(xs, bins)
	if err != nil {
		return nil, err
	}
	// Fit the exponent over the tail above the median count.
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	alpha, err := stats.PowerLawAlphaMLE(xs, stats.Quantile(sorted, 0.5))
	if err != nil {
		return nil, err
	}
	return &Figure3Result{Bins: hist, Alpha: alpha, MinCount: minCount}, nil
}

// Render gives the terminal rendition of Figure 3.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — histogram of events reported per site (cutoff >= %d)\n", r.MinCount)
	labels := make([]string, len(r.Bins))
	counts := make([]int, len(r.Bins))
	for i, bin := range r.Bins {
		labels[i] = fmt.Sprintf("%6.0f-%6.0f", bin.Lo, bin.Hi)
		counts[i] = bin.Count
	}
	b.WriteString(report.ASCIIHistogram(labels, counts, 40))
	fmt.Fprintf(&b, "power-law exponent (MLE over tail): %.2f — the Matthew effect\n", r.Alpha)
	return b.String()
}
