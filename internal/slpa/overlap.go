package slpa

import (
	"fmt"
	"sort"

	"viralcast/internal/graph"
	"viralcast/internal/xrand"
)

// Cover is an overlapping community assignment — the full SLPA output
// (the original algorithm was designed to uncover *overlapping*
// communities; the paper's parallel algorithm consumes the disjoint
// reduction from Detect, but the overlapping form is useful for
// analyzing bridge sites that belong to several regional communities).
type Cover struct {
	// Memberships[u] lists the community ids node u belongs to, sorted.
	Memberships [][]int
	// Communities[c] lists the member nodes of community c, sorted.
	Communities [][]int
}

// NumCommunities returns the number of communities in the cover.
func (c *Cover) NumCommunities() int { return len(c.Communities) }

// Validate checks structural consistency of the cover for n nodes:
// every node has at least one community, memberships and community
// lists agree, and ids are in range.
func (c *Cover) Validate(n int) error {
	if len(c.Memberships) != n {
		return fmt.Errorf("slpa: cover has %d membership rows, want %d", len(c.Memberships), n)
	}
	inComm := make([]map[int]bool, len(c.Communities))
	for cid, members := range c.Communities {
		inComm[cid] = make(map[int]bool, len(members))
		for _, u := range members {
			if u < 0 || u >= n {
				return fmt.Errorf("slpa: community %d contains out-of-range node %d", cid, u)
			}
			if inComm[cid][u] {
				return fmt.Errorf("slpa: community %d lists node %d twice", cid, u)
			}
			inComm[cid][u] = true
		}
	}
	for u, comms := range c.Memberships {
		if len(comms) == 0 {
			return fmt.Errorf("slpa: node %d has no community", u)
		}
		for _, cid := range comms {
			if cid < 0 || cid >= len(c.Communities) {
				return fmt.Errorf("slpa: node %d references community %d out of range", u, cid)
			}
			if !inComm[cid][u] {
				return fmt.Errorf("slpa: node %d claims community %d which does not list it", u, cid)
			}
		}
	}
	return nil
}

// OverlapNodes returns the nodes that belong to more than one community
// — the bridges.
func (c *Cover) OverlapNodes() []int {
	var out []int
	for u, comms := range c.Memberships {
		if len(comms) > 1 {
			out = append(out, u)
		}
	}
	return out
}

// DetectOverlapping runs SLPA and keeps, for every node, every label
// whose memory frequency is at least r (the original algorithm's
// post-processing threshold, typically 0.05-0.5). Lower r keeps more
// overlap; r > 0.5 degenerates to the disjoint output.
func DetectOverlapping(g *graph.Graph, opt Options, r float64, rng *xrand.RNG) (*Cover, error) {
	if r <= 0 || r > 1 {
		return nil, fmt.Errorf("slpa: threshold r must be in (0,1], got %v", r)
	}
	opt = opt.withDefaults()
	memory := propagate(g.Undirected(), opt.Iterations, rng)
	// Post-processing: keep labels above the frequency threshold; always
	// keep the most frequent label so every node is covered. Memories
	// are sorted, and so is kept.
	rawMemberships := make([][]int, len(memory))
	labelsSeen := map[int]int{} // raw label -> dense community id
	var communities [][]int
	for u, mem := range memory {
		var kept []int
		eachRun(mem, func(label int32, count int) {
			if float64(count)/float64(len(mem)) >= r {
				kept = append(kept, int(label))
			}
		})
		if len(kept) == 0 {
			kept = []int{int(modal(mem))}
		}
		for _, label := range kept {
			id, ok := labelsSeen[label]
			if !ok {
				id = len(communities)
				labelsSeen[label] = id
				communities = append(communities, nil)
			}
			communities[id] = append(communities[id], u)
			rawMemberships[u] = append(rawMemberships[u], id)
		}
	}
	for _, members := range communities {
		sort.Ints(members)
	}
	for _, comms := range rawMemberships {
		sort.Ints(comms)
	}
	return &Cover{Memberships: rawMemberships, Communities: communities}, nil
}
