package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"viralcast/internal/core"
	"viralcast/internal/report"
	"viralcast/internal/scenario"
)

// campaignOpts carries the `viralcast simulate -model ...` flags into
// the offline what-if runner.
type campaignOpts struct {
	model      string
	sets       string
	trials     int
	horizon    float64
	seed       uint64
	budget     int
	maxSize    int
	milestones string
}

// runCampaign is the offline face of the scenario engine: load a fitted
// embeddings file, build candidate seed sets (parsed from -seed-sets,
// or CELF-vs-top-influencers at -budget when none are given), run the
// Monte Carlo comparison, and print the distribution and milestone
// tables. The same spec POSTed to a daemon serving the same model file
// returns the same numbers — the engine is deterministic per
// (model, normalized spec).
func runCampaign(ctx context.Context, opts campaignOpts) error {
	f, err := os.Open(opts.model)
	if err != nil {
		return err
	}
	defer f.Close()
	sys, err := core.LoadSystem(f, core.TrainConfig{})
	if err != nil {
		return err
	}
	spec := scenario.Spec{
		Trials:   opts.trials,
		Horizon:  opts.horizon,
		BaseSeed: opts.seed,
		MaxSize:  opts.maxSize,
	}
	if opts.milestones != "" {
		if spec.Milestones, err = parseIntList(opts.milestones); err != nil {
			return fmt.Errorf("simulate: -milestones: %w", err)
		}
	}
	if opts.sets != "" {
		if spec.SeedSets, err = parseSeedSets(opts.sets); err != nil {
			return fmt.Errorf("simulate: -seed-sets: %w", err)
		}
	} else {
		// The default question: does the CELF-optimized seed set beat
		// simply paying the top-influence nodes, at the same budget?
		seeds, err := sys.SelectSeedsCtx(ctx, opts.budget, opts.horizon)
		if err != nil {
			return err
		}
		celf := make([]int, len(seeds))
		for i, s := range seeds {
			celf[i] = s.Node
		}
		var top []int
		for _, inf := range sys.TopInfluencers(opts.budget) {
			top = append(top, inf.Node)
		}
		spec.SeedSets = []scenario.SeedSet{
			{Name: "celf", Nodes: celf},
			{Name: "top-influencers", Nodes: top},
		}
		if sameSet(celf, top) {
			// A race of a set against itself reads as a coin flip (win
			// rate ≈ 0.5) and says nothing: report the one set alone.
			fmt.Printf("scenario: CELF picked the top %d influencers, the same set; no race to run\n", len(top))
			spec.SeedSets = []scenario.SeedSet{{Name: "celf=top-influencers", Nodes: top}}
		}
	}
	eng, err := scenario.New(sys.Embeddings, 0)
	if err != nil {
		return err
	}
	res, err := eng.Run(ctx, spec)
	if err != nil {
		return err
	}
	printCampaign(res)
	return nil
}

// sameSet reports whether a and b hold the same nodes, in any order.
func sameSet(a, b []int) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// printCampaign renders the reach-distribution table (with mean
// pairwise win rate) and the time-to-milestone table.
func printCampaign(res *scenario.Result) {
	fmt.Printf("scenario: %d trials per set, horizon %g, seed %d\n",
		res.Trials, res.Horizon, res.BaseSeed)
	rows := make([][]string, len(res.Sets))
	for i, s := range res.Sets {
		win := "-"
		if len(res.Sets) > 1 {
			var sum float64
			for j := range res.Sets {
				if j != i {
					sum += res.WinRate[i][j]
				}
			}
			win = report.FormatFloat(sum/float64(len(res.Sets)-1), 3)
		}
		rows[i] = []string{
			s.Name,
			formatNodes(s.Seeds),
			report.FormatFloat(s.Reach.Mean, 1),
			report.FormatFloat(s.Reach.P50, 1),
			report.FormatFloat(s.Reach.P90, 1),
			report.FormatFloat(s.Reach.P99, 1),
			strconv.Itoa(s.Reach.Max),
			win,
		}
	}
	fmt.Print(report.Table(
		[]string{"set", "seeds", "mean", "p50", "p90", "p99", "max", "win-rate"}, rows))
	var mrows [][]string
	for _, s := range res.Sets {
		for _, m := range s.Milestones {
			t := "never"
			if m.P50Time >= 0 {
				t = report.FormatFloat(m.P50Time, 3)
			}
			mrows = append(mrows, []string{
				s.Name,
				strconv.Itoa(m.Size),
				report.FormatFloat(m.Reached*100, 1) + "%",
				t,
			})
		}
	}
	if len(mrows) > 0 {
		fmt.Println("time to size:")
		fmt.Print(report.Table([]string{"set", "size", "reached", "median time"}, mrows))
	}
}

// formatNodes abbreviates long seed lists for the table.
func formatNodes(nodes []int) string {
	const show = 6
	parts := make([]string, 0, show+1)
	for i, v := range nodes {
		if i == show {
			parts = append(parts, fmt.Sprintf("+%d", len(nodes)-show))
			break
		}
		parts = append(parts, strconv.Itoa(v))
	}
	return strings.Join(parts, ",")
}

// parseSeedSets parses `-seed-sets "celf:0,1,2;top:5,6,7"`; the
// "name:" prefix is optional (unnamed sets get set-N defaults during
// normalization).
func parseSeedSets(raw string) ([]scenario.SeedSet, error) {
	var out []scenario.SeedSet
	for _, part := range strings.Split(raw, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var set scenario.SeedSet
		if name, nodes, ok := strings.Cut(part, ":"); ok {
			set.Name = strings.TrimSpace(name)
			part = nodes
		}
		nodes, err := parseIntList(part)
		if err != nil {
			return nil, err
		}
		set.Nodes = nodes
		out = append(out, set)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seed sets in %q", raw)
	}
	return out, nil
}

func parseIntList(raw string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(raw, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", raw)
	}
	return out, nil
}
