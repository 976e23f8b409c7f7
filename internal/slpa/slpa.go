// Package slpa implements the Speaker-Listener Label Propagation
// Algorithm (Xie, Szymanski & Liu, ICDMW 2011), the community detection
// method the paper runs on the frequent co-occurrence graph (§IV-B). The
// graph is undirected, stored symmetric, as cooccur.Build emits it.
//
// Each node keeps a memory of labels. In every iteration each listener
// node collects one label from each neighbor (the speaker samples a label
// from its own memory, weighted by frequency; neighbors are weighted by
// edge weight) and stores the most popular received label. After T
// iterations, each node's community is the most frequent label in its
// memory — a disjoint partition, which is what the parallel inference
// algorithm needs (the paper relies on communities that do not intersect
// so that gradient updates touch disjoint matrix rows).
//
// The rounds stop as soon as the rest cannot matter. A listener stores
// exactly one label per round, so once its most frequent label leads
// every other by more than the rounds left, no later round can change
// what it ends up with. Detect stops at the first round boundary where
// every listener holds such a lead, and its partition is the one all T
// rounds give.
package slpa

import (
	"fmt"
	"slices"
	"sort"

	"viralcast/internal/graph"
	"viralcast/internal/xrand"
)

// Options has no fields: Detect runs T = propagationRounds and returns the
// partition SLPA's memories give, communities of every size. The type
// stays only so that callers passing Options{} keep compiling.
type Options struct{}

// propagationRounds is SLPA's number of rounds T, past which its
// authors report its output stable (Xie, Szymanski & Liu 2011). Detect
// runs fewer only when they give the same partition.
const propagationRounds = 20

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

// Detect runs SLPA on g and returns a disjoint partition. g must be
// symmetric, as cooccur.Build's graph is: v lists u with the same weight
// whenever u lists v, and a listener's neighbors are its speakers.
func Detect(g *graph.Graph, _ Options, rng *xrand.RNG) *Partition {
	return detect(g, propagationRounds, rng)
}

// detect is Detect with T = iterations.
func detect(g *graph.Graph, iterations int, rng *xrand.RNG) *Partition {
	memory, _ := propagate(g, iterations, rng)
	// Post-processing: each node takes its most frequent remembered label
	// (ties: lowest label).
	membership := make([]int, len(memory))
	for u, mem := range memory {
		membership[u] = int(modal(mem))
	}
	return FromMembership(membership)
}

// eachRun calls f with every distinct label of a sorted memory, in
// ascending order, and the number of times it was stored.
func eachRun(mem []int32, f func(label int32, count int)) {
	for i := 0; i < len(mem); {
		j := i + 1
		for j < len(mem) && mem[j] == mem[i] {
			j++
		}
		f(mem[i], j-i)
		i = j
	}
}

// modal returns the most frequent label of a sorted memory, the lowest
// one on a tie.
func modal(mem []int32) int32 {
	best, bestN := mem[0], 0
	eachRun(mem, func(label int32, count int) {
		if count > bestN {
			best, bestN = label, count
		}
	})
	return best
}

// adjacency is the undirected graph propagate sweeps. Its rows must be
// symmetric — v lists u whenever u lists v — so every speaker is also a
// listener. *graph.Graph is the only implementation outside tests.
type adjacency interface {
	N() int
	Neighbors(u int) (targets []int, weights []float64)
}

// The draws reach the sweep in chunks of drawChunk ints, and drawChunks
// chunks exist, so the handoff holds at most drawChunk*drawChunks ints
// (512 KiB) whatever the size of the graph. Less queued work does not
// cover the time a goroutine blocked on a channel takes to be woken on
// the other CPU: 4 chunks of 4,096 ran SLPA on the train benchmark's
// graph 1.5× slower at GOMAXPROCS 2.
const (
	drawChunk  = 1 << 13
	drawChunks = 8
)

// roundEnd closes every round in the draw stream, where a listener's id
// would otherwise come next.
const roundEnd = -1

// tally is what decides a memory's modal label: the label (ties: lowest),
// how often it was stored, and how often the runner-up was.
type tally struct {
	lead, leadN, nextN int32
}

// stored records one more copy of label in the memory, which now holds
// count of them.
func (t *tally) stored(label, count int32) {
	switch {
	case label == t.lead:
		t.leadN = count
	case count > t.leadN || count == t.leadN && label < t.lead:
		t.lead, t.leadN, t.nextN = label, count, t.leadN
	case count > t.nextN:
		t.nextN = count
	}
}

// settled reports whether lead stays the modal label whatever roundsLeft
// more labels are stored. The lead must exceed the rounds left: a label
// that draws level takes the tie if its own is lower.
func (t tally) settled(roundsLeft int) bool { return int(t.leadN-t.nextN) > roundsLeft }

// propagate runs the speaker-listener rounds on the undirected graph and
// returns every node's memory — the labels it stored, sorted, with
// repeats, one plus one per round it listened in — and the number of
// rounds it ran. Speaking is then one uniform index into the memory,
// which lands on each label as often as it was stored. Labels are node
// ids, so what a listener hears is tallied in a dense per-label array. A
// node stores one label per round, which bounds its memory at
// iterations+1 labels: all memories are carved from one block up front
// and the sweep itself allocates nothing.
//
// The rounds stop after round s < iterations once every listener's tally
// is settled for the iterations-s rounds left; each memory's modal label
// is then the one all iterations rounds would leave it with. A settled
// tally stays settled (a round cuts a lead by at most one and the rounds
// left by exactly one), so each round boundary re-checks only the nodes
// still open.
//
// The sweep is sequential — a listener hears what earlier listeners of
// the round stored — but the random draws it consumes are fixed by the
// shuffled order alone, so a second goroutine (produceDraws) makes them
// ahead of it and the sweep only reads them. Where the RNG stops does not
// depend on how far ahead the producer got: it starts round q+2 only once
// the sweep has said whether round q settled, so a stop after round s
// leaves the RNG after min(s+1, iterations) rounds of draws, the last of
// which the sweep discards. propagate returns once the producer has
// closed its stream.
func propagate(und adjacency, iterations int, rng *xrand.RNG) (memory [][]int32, rounds int) {
	n, stride := und.N(), iterations+1
	block := make([]int32, n*stride)
	memory = make([][]int32, n)
	tallies := make([]tally, n)
	open := make([]int32, 0, n) // listeners whose tally is not settled
	for u := range memory {
		block[u*stride] = int32(u) // initially every node holds itself
		memory[u] = block[u*stride : u*stride+1 : (u+1)*stride]
		tallies[u] = tally{lead: int32(u), leadN: 1}
		if ts, _ := und.Neighbors(u); len(ts) > 0 {
			open = append(open, int32(u))
		}
	}
	// Either draw channel can hold every chunk, so no send blocks; nor
	// does one on verdicts, as the sweep is never more than two verdicts
	// ahead of the producer.
	full, free := make(chan []int, drawChunks), make(chan []int, drawChunks)
	for range drawChunks {
		free <- make([]int, drawChunk)
	}
	verdicts := make(chan bool, 2)
	go produceDraws(und, iterations, stride, rng, full, free, verdicts)

	received := make([]float64, n) // zero outside a listener's turn
	heard := make([]int32, 0, n)   // labels with an entry in received
	var chunk []int                // the draws not yet read, from chunk[k] on
	k := 0
	for {
		if k == len(chunk) {
			if chunk != nil {
				free <- chunk
			}
			var ok bool
			if chunk, ok = <-full; !ok {
				break // the producer closed full after its last draw
			}
			k = 0
		}
		listener := chunk[k]
		k++
		if listener == roundEnd {
			if rounds++; rounds == iterations {
				continue // the producer closes full next
			}
			left, kept := iterations-rounds, open[:0]
			for _, u := range open {
				if !tallies[u].settled(left) {
					kept = append(kept, u)
				}
			}
			open = kept
			verdicts <- len(open) == 0
			if len(open) == 0 {
				// The producer ends the stream after round rounds+1; those
				// draws go back unread until it closes full.
				free <- chunk
				for chunk = range full {
					free <- chunk
				}
				break
			}
			continue
		}
		// Each neighbor speaks the label at the block index drawn for it;
		// the listener adopts the label with the largest total edge
		// weight among those spoken (ties: lowest label).
		_, ws := und.Neighbors(listener)
		for _, w := range ws {
			if k == len(chunk) {
				free <- chunk
				chunk, k = <-full, 0
			}
			label := block[chunk[k]]
			k++
			if received[label] == 0 {
				// A label whose weights sum to zero so far is listed
				// again, which the arg-max below does not mind.
				heard = append(heard, label)
			}
			received[label] += w
		}
		best, bestW := int32(-1), -1.0
		for _, label := range heard {
			if w := received[label]; w > bestW || (w == bestW && label < best) {
				best, bestW = label, w
			}
			received[label] = 0
		}
		heard = heard[:0]
		// best goes in at the end of its run, whose length is its count.
		mem := memory[listener]
		end, _ := slices.BinarySearch(mem, best+1)
		start := end
		for start > 0 && mem[start-1] == best {
			start--
		}
		memory[listener] = slices.Insert(mem, end, best)
		tallies[listener].stored(best, int32(end-start+1))
	}
	return memory, rounds
}

// produceDraws makes every random draw of propagate's rounds, in the order
// the sequential sweep consumes them, and sends them down full in chunks
// taken from free; it closes full after the last one. Per round: the
// shuffle of the listening order, then, for each listener with
// neighbors, a record of the listener's id followed by one flat block
// index per neighbor — speaker*stride plus a uniform draw below the
// speaker's memory size at that moment — and last a roundEnd. That size
// needs no look at the sweep: a speaker is some listener's neighbor, so
// it listens in every round, and holds 1+round labels, one more once its
// own turn in this round has passed.
//
// Before round q+2 it sends the chunk it holds, which the sweep may need
// to finish round q, and reads the sweep's verdict on round q: true, every
// listener settled, ends the stream there.
func produceDraws(und adjacency, iterations, stride int, rng *xrand.RNG, full chan<- []int, free <-chan []int, verdicts <-chan bool) {
	defer close(full)
	n := und.N()
	order, pos := make([]int, n), make([]int, n)
	for u := range order {
		order[u] = u
	}
	buf, k := <-free, 0
	for it := 0; it < iterations; it++ {
		if it >= 2 { // round it+1 (counting from 1) waits for round it-1
			if k > 0 {
				full <- buf[:k]
				buf, k = (<-free)[:drawChunk], 0
			}
			if <-verdicts {
				return
			}
		}
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for i, u := range order {
			pos[u] = i
		}
		for i, listener := range order {
			ts, _ := und.Neighbors(listener)
			if len(ts) == 0 {
				continue
			}
			if k == len(buf) {
				full <- buf
				buf, k = (<-free)[:drawChunk], 0
			}
			buf[k] = listener
			k++
			// The speakers' memory sizes are written where their draws go,
			// drawn in one call per chunk they span, then offset to blocks.
			for len(ts) > 0 {
				if k == len(buf) {
					full <- buf
					buf, k = (<-free)[:drawChunk], 0
				}
				seg := buf[k:min(len(buf), k+len(ts))]
				for j, speaker := range ts[:len(seg)] {
					size := it + 1
					if pos[speaker] < i {
						size++
					}
					seg[j] = size
				}
				rng.IntnEach(seg)
				for j, speaker := range ts[:len(seg)] {
					seg[j] += speaker * stride
				}
				k += len(seg)
				ts = ts[len(seg):]
			}
		}
		if k == len(buf) {
			full <- buf
			buf, k = (<-free)[:drawChunk], 0
		}
		buf[k] = roundEnd
		k++
	}
	if k > 0 {
		full <- buf[:k]
	}
}
