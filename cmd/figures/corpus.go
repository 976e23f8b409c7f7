package main

import (
	"flag"
	"fmt"
	"os"

	"viralcast/internal/cascade"
	"viralcast/internal/cluster"
	"viralcast/internal/gdelt"
	"viralcast/internal/xrand"
)

// cmdGdelt generates a synthetic GDELT-like news corpus and exports its
// two tables (site metadata and event reporting cascades), optionally
// with the Figure-2 co-reporting backbone as GraphViz DOT.
func cmdGdelt(args []string) error {
	fs := flag.NewFlagSet("gdelt", flag.ExitOnError)
	sites := fs.Int("sites", 6000, "number of news sites")
	events := fs.Int("events", 2600, "number of news events")
	seed := fs.Uint64("seed", 1, "random seed")
	outSites := fs.String("out-sites", "", "sites CSV output path (required)")
	outEvents := fs.String("out-events", "", "events output path (required)")
	outDot := fs.String("out-dot", "", "optional GraphViz DOT of the co-reporting backbone (Figure 2)")
	minShared := fs.Int("min-shared", 10, "backbone threshold: pairs sharing at least this many events")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outSites == "" || *outEvents == "" {
		return fmt.Errorf("gdelt: -out-sites and -out-events are required")
	}
	cfg := gdelt.DefaultConfig()
	cfg.Sites = *sites
	cfg.Events = *events
	cfg.Seed = *seed
	// Keep the wire-link density proportional when shrinking the corpus.
	if *sites < 6000 {
		cfg.CrossLinks = cfg.CrossLinks * *sites / 6000
		if cfg.CrossLinks < 10 {
			cfg.CrossLinks = 10
		}
	}
	ds, err := gdelt.Generate(cfg)
	if err != nil {
		return err
	}
	sf, err := os.Create(*outSites)
	if err != nil {
		return err
	}
	defer sf.Close()
	ef, err := os.Create(*outEvents)
	if err != nil {
		return err
	}
	defer ef.Close()
	if err := ds.Export(sf, ef); err != nil {
		return err
	}
	if *outDot != "" {
		bb, err := ds.Backbone(*minShared)
		if err != nil {
			return err
		}
		df, err := os.Create(*outDot)
		if err != nil {
			return err
		}
		defer df.Close()
		// Color nodes by region so the Figure-2 block structure is visible.
		colors := []string{"red", "blue", "green", "orange", "purple", "brown"}
		err = bb.WriteDOT(df, "backbone", func(u int) string {
			if bb.OutDegree(u) == 0 {
				return "" // omit sites outside the backbone
			}
			c := colors[ds.RegionOf(u)%len(colors)]
			return fmt.Sprintf("color=%q", c)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote backbone DOT (%d edges) to %s\n", bb.M()/2, *outDot)
	}
	fmt.Fprintf(os.Stderr, "exported %d sites and %d events (mean reports/event %.1f)\n",
		len(ds.Sites), len(ds.Events), cascade.MeanSize(ds.Events))
	return nil
}

// cmdCluster runs the Figure-1 Ward clustering over a cascade file.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	in := fs.String("in", "", "cascade file (required)")
	n := fs.Int("n", 0, "number of nodes (default: inferred)")
	k := fs.Int("k", 4, "flat clusters to cut the dendrogram into")
	sample := fs.Int("sample", 2000, "max cascades to cluster (Ward is O(n^2))")
	depth := fs.Int("depth", 4, "dendrogram render depth")
	seed := fs.Uint64("seed", 1, "sampling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("cluster: -in is required")
	}
	cs, _, err := cascade.ReadFile(*in, *n)
	if err != nil {
		return err
	}
	// Keep multi-node cascades; subsample if needed.
	var usable []*cascade.Cascade
	for _, c := range cs {
		if c.Size() >= 2 {
			usable = append(usable, c)
		}
	}
	if len(usable) < 2 {
		return fmt.Errorf("cluster: only %d multi-node cascades", len(usable))
	}
	if len(usable) > *sample {
		rng := xrand.New(*seed)
		perm := rng.Perm(len(usable))
		picked := make([]*cascade.Cascade, *sample)
		for i := 0; i < *sample; i++ {
			picked[i] = usable[perm[i]]
		}
		usable = picked
	}
	d := cluster.Ward(cluster.CascadeDistances(usable))
	fmt.Printf("clustered %d cascades (Ward over Jaccard distances)\n", len(usable))
	fmt.Println("top merges (Ward distance , cascades):")
	for _, m := range d.TopMerges(6) {
		fmt.Printf("  %.2f , %d\n", m.Height, m.Size)
	}
	fmt.Println(d.RenderDendrogram(*depth))
	labels, err := d.Cut(*k)
	if err != nil {
		return err
	}
	counts := make([]int, *k)
	for _, l := range labels {
		counts[l]++
	}
	fmt.Printf("flat cut at k=%d: cluster sizes %v\n", *k, counts)
	return nil
}
