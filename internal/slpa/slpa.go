// Package slpa implements the Speaker-Listener Label Propagation
// Algorithm (Xie, Szymanski & Liu, ICDMW 2011), the community detection
// method the paper runs on the frequent co-occurrence graph (§IV-B).
//
// Each node keeps a memory of labels. In every iteration each listener
// node collects one label from each neighbor (the speaker samples a label
// from its own memory, weighted by frequency; neighbors are weighted by
// edge weight) and stores the most popular received label. After T
// iterations, each node's community is the most frequent label in its
// memory — a disjoint partition, which is what the parallel inference
// algorithm needs (the paper relies on communities that do not intersect
// so that gradient updates touch disjoint matrix rows).
package slpa

import (
	"fmt"
	"sort"

	"viralcast/internal/graph"
	"viralcast/internal/xrand"
)

// Options configures SLPA.
type Options struct {
	// Iterations is the number of propagation rounds T (paper default
	// regimes use 20-100; we default to 50 when 0).
	Iterations int
	// MinCommunitySize merges communities smaller than this into their
	// most-connected neighbor community (0 disables). Tiny fragments are
	// useless as parallel work units.
	MinCommunitySize int
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 50
	}
	return o
}

// Partition holds a disjoint community assignment.
type Partition struct {
	// Membership maps node id -> community id in [0, NumCommunities).
	Membership []int
	// Communities lists member nodes per community id, each sorted.
	Communities [][]int
}

// NumCommunities returns the number of communities.
func (p *Partition) NumCommunities() int { return len(p.Communities) }

// Validate checks that the partition is a disjoint cover of [0, n).
func (p *Partition) Validate(n int) error {
	if len(p.Membership) != n {
		return fmt.Errorf("slpa: membership length %d != n %d", len(p.Membership), n)
	}
	seen := make([]bool, n)
	for cid, members := range p.Communities {
		for _, u := range members {
			if u < 0 || u >= n {
				return fmt.Errorf("slpa: node %d out of range", u)
			}
			if seen[u] {
				return fmt.Errorf("slpa: node %d in two communities", u)
			}
			seen[u] = true
			if p.Membership[u] != cid {
				return fmt.Errorf("slpa: membership[%d]=%d but listed in community %d",
					u, p.Membership[u], cid)
			}
		}
	}
	for u, ok := range seen {
		if !ok {
			return fmt.Errorf("slpa: node %d not covered", u)
		}
	}
	return nil
}

// FromMembership builds a Partition from a membership slice, renumbering
// community ids densely in order of first appearance.
func FromMembership(membership []int) *Partition {
	remap := map[int]int{}
	p := &Partition{Membership: make([]int, len(membership))}
	for u, raw := range membership {
		id, ok := remap[raw]
		if !ok {
			id = len(p.Communities)
			remap[raw] = id
			p.Communities = append(p.Communities, nil)
		}
		p.Membership[u] = id
		p.Communities[id] = append(p.Communities[id], u)
	}
	for _, members := range p.Communities {
		sort.Ints(members)
	}
	return p
}

// Detect runs SLPA on g (interpreted as undirected: both in- and
// out-neighbors speak to a listener) and returns a disjoint partition.
func Detect(g *graph.Graph, opt Options, rng *xrand.RNG) *Partition {
	opt = opt.withDefaults()
	und := g.Undirected()
	memory := propagate(und, opt.Iterations, rng)
	// Post-processing: each node takes its most frequent remembered label
	// (ties: lowest label, the first in its sorted memory).
	membership := make([]int, len(memory))
	for u, mem := range memory {
		best := mem[0]
		for _, e := range mem[1:] {
			if e.count > best.count {
				best = e
			}
		}
		membership[u] = int(best.label)
	}
	p := FromMembership(membership)
	if opt.MinCommunitySize > 1 {
		p = mergeSmall(und, p, opt.MinCommunitySize)
	}
	return p
}

// entry is one remembered label and the number of times it was stored.
type entry struct{ label, count int32 }

// propagate runs the speaker-listener rounds on the undirected graph and
// returns every node's memory sorted by label; a memory's counts sum to
// one plus the number of rounds the node listened in. Labels are node
// ids, so what a listener hears is tallied in a dense per-label array.
// A node stores one label per round, which bounds its memory at
// iterations+1 entries: all memories are carved from one block up front
// and the sweep itself allocates nothing.
func propagate(und *graph.Graph, iterations int, rng *xrand.RNG) [][]entry {
	n, stride := und.N(), iterations+1
	block := make([]entry, n*stride)
	memory := make([][]entry, n)
	memSize := make([]int, n)
	order := make([]int, n)
	for u := range memory {
		block[u*stride] = entry{int32(u), 1} // initially every node holds itself
		memory[u] = block[u*stride : u*stride+1 : (u+1)*stride]
		memSize[u], order[u] = 1, u
	}
	received := make([]float64, n) // zero outside a listener's turn
	heard := make([]int32, 0, n)   // labels with an entry in received
	for it := 0; it < iterations; it++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, listener := range order {
			ts, ws := und.Neighbors(listener)
			if len(ts) == 0 {
				continue
			}
			// Each neighbor speaks one label sampled from its memory;
			// the listener adopts the label with the largest total edge
			// weight among those spoken (ties: lowest label).
			for i, speaker := range ts {
				label := speak(memory[speaker], memSize[speaker], rng)
				if received[label] == 0 {
					// A label whose weights sum to zero so far is listed
					// again, which the arg-max below does not mind.
					heard = append(heard, label)
				}
				received[label] += ws[i]
			}
			best, bestW := int32(-1), -1.0
			for _, label := range heard {
				if w := received[label]; w > bestW || (w == bestW && label < best) {
					best, bestW = label, w
				}
				received[label] = 0
			}
			heard = heard[:0]
			memory[listener] = remember(memory[listener], best)
			memSize[listener]++
		}
	}
	return memory
}

// speak samples a label from the speaker's memory proportionally to its
// stored frequency, walking the labels in ascending order.
func speak(mem []entry, total int, rng *xrand.RNG) int32 {
	target := int32(rng.Intn(total))
	for _, e := range mem {
		if target < e.count {
			return e.label
		}
		target -= e.count
	}
	return mem[len(mem)-1].label
}

// remember counts one more occurrence of label in the sorted memory.
func remember(mem []entry, label int32) []entry {
	i := 0
	for i < len(mem) && mem[i].label < label {
		i++
	}
	if i < len(mem) && mem[i].label == label {
		mem[i].count++
		return mem
	}
	mem = append(mem, entry{})
	copy(mem[i+1:], mem[i:])
	mem[i] = entry{label, 1}
	return mem
}

// mergeSmall folds communities below minSize into the neighboring
// community they connect to with the greatest total weight; isolated
// small communities merge into the largest community.
func mergeSmall(und *graph.Graph, p *Partition, minSize int) *Partition {
	membership := append([]int(nil), p.Membership...)
	// members[c] is community c's sorted node list, nil once merged away.
	members := append([][]int(nil), p.Communities...)
	weightTo := make([]float64, len(members)) // zero between rounds
	var neighbors []int                       // communities with an entry in weightTo
	for {
		// Find the smallest community below threshold (ties: lowest id).
		small := -1
		for id, m := range members {
			if len(m) > 0 && len(m) < minSize && (small == -1 || len(m) < len(members[small])) {
				small = id
			}
		}
		if small == -1 {
			break
		}
		// Total connection weight to every other community.
		for _, u := range members[small] {
			ts, ws := und.Neighbors(u)
			for i, v := range ts {
				if c := membership[v]; c != small {
					if weightTo[c] == 0 { // as in propagate: repeats are harmless
						neighbors = append(neighbors, c)
					}
					weightTo[c] += ws[i]
				}
			}
		}
		target, bestW := -1, -1.0
		for _, id := range neighbors {
			if w := weightTo[id]; w > bestW || (w == bestW && id < target) {
				target, bestW = id, w
			}
			weightTo[id] = 0
		}
		neighbors = neighbors[:0]
		if target == -1 {
			// Isolated: merge into the largest other community, if any
			// (ties: lowest id).
			for id, m := range members {
				if id != small && len(m) > 0 && (target == -1 || len(m) > len(members[target])) {
					target = id
				}
			}
			if target == -1 {
				break // only one community left
			}
		}
		for _, u := range members[small] {
			membership[u] = target
		}
		merged := append(append([]int(nil), members[target]...), members[small]...)
		if len(merged) < minSize {
			sort.Ints(merged) // it will be folded in turn, in node order
		}
		members[target], members[small] = merged, nil
	}
	return FromMembership(membership)
}

// Modularity computes the weighted Newman modularity of the partition on
// graph g (treated as undirected). Used in tests and diagnostics to check
// that detected communities are meaningfully dense.
func Modularity(g *graph.Graph, p *Partition) float64 {
	und := g.Undirected()
	m2 := und.TotalWeight() // sum over directed arcs = 2m for undirected
	if m2 == 0 {
		return 0
	}
	// Standard per-community form: Q = sum_c [ w_in(c)/m2 - (deg(c)/m2)^2 ]
	// where w_in(c) counts directed arcs inside c (each undirected edge
	// twice, matching m2 = 2m) and deg(c) is the total weighted degree.
	nc := p.NumCommunities()
	win := make([]float64, nc)
	deg := make([]float64, nc)
	for u := 0; u < und.N(); u++ {
		cu := p.Membership[u]
		ts, ws := und.Neighbors(u)
		for i, v := range ts {
			deg[cu] += ws[i]
			if p.Membership[v] == cu {
				win[cu] += ws[i]
			}
		}
	}
	var q float64
	for c := 0; c < nc; c++ {
		q += win[c]/m2 - (deg[c]/m2)*(deg[c]/m2)
	}
	return q
}
