// Package features extracts the early-adopter features the paper feeds
// to the cascade-virality classifier (§V): given the inferred influence
// embeddings of the nodes that reported an event early, it computes
//
//	diverA — the maximum Euclidean distance between any pair of early
//	         adopters' influence vectors (Eq. 17): high divergence means
//	         the cascade already spans several topics;
//	normA  — the Euclidean norm of the summed influence vectors (Eq. 18);
//	maxA   — the largest component of the summed influence vector
//	         (Eq. 19): the strength of the single hottest topic.
//
// Two model-free baseline features (early-adopter count and arrival rate)
// are included for the feature-ablation experiments.
package features

import (
	"fmt"
	"sync"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
	"viralcast/internal/vecmath"
)

// Set is one cascade's extracted feature values.
type Set struct {
	DiverA     float64
	NormA      float64
	MaxA       float64
	EarlyCount float64 // number of early adopters (baseline feature)
	EarlyRate  float64 // adopters per unit time within the early window
}

// Names lists the feature names in Set's field order.
var Names = []string{"diverA", "normA", "maxA", "earlyCount", "earlyRate"}

// Select returns the subset of the feature vector named by keep, in keep
// order. Unknown names are an error.
func (s Set) Select(keep []string) ([]float64, error) {
	return s.SelectAppend(make([]float64, 0, len(keep)), keep)
}

// SelectAppend is Select appending into dst, for serving hot paths that
// reuse a scratch buffer across requests instead of allocating one per
// prediction.
func (s Set) SelectAppend(dst []float64, keep []string) ([]float64, error) {
	// A fixed-size array keeps the full vector on the stack; a slice
	// would allocate on every prediction.
	full := [...]float64{s.DiverA, s.NormA, s.MaxA, s.EarlyCount, s.EarlyRate}
	for _, name := range keep {
		found := false
		for i, n := range Names {
			if n == name {
				dst = append(dst, full[i])
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("features: unknown feature %q", name)
		}
	}
	return dst, nil
}

// sumPool recycles the K-sized accumulation scratch across Extract
// calls; the serving predict path runs one Extract per request, and the
// scratch never escapes into the returned Set (which holds scalars
// only).
var sumPool = sync.Pool{New: func() any { s := make([]float64, 0, 64); return &s }}

// Extract computes the feature set from the early-adopter prefix of a
// cascade under the fitted model. The prefix must be non-empty; use
// Cascade.Prefix to cut at the early-observation horizon.
func Extract(m *embed.Model, early *cascade.Cascade) (Set, error) {
	sp := sumPool.Get().(*[]float64)
	defer func() { sumPool.Put(sp) }()
	sum := *sp
	if cap(sum) < m.K() {
		sum = make([]float64, m.K())
		*sp = sum
	}
	return extractWith(m, early, sum)
}

// extractWith is Extract against a caller-provided K-capacity scratch;
// the batch path shares one scratch across a whole block instead of a
// pool round-trip per cascade. Both paths run the identical sequence of
// float operations, which is what makes batched and single-request
// features bit-identical.
func extractWith(m *embed.Model, early *cascade.Cascade, scratch []float64) (Set, error) {
	if early == nil || early.Size() == 0 {
		return Set{}, fmt.Errorf("features: empty early-adopter prefix")
	}
	n := m.N()
	k := m.K()
	sum := scratch[:k]
	vecmath.Fill(sum, 0)
	var diver float64
	infs := early.Infections
	for i, inf := range infs {
		if inf.Node < 0 || inf.Node >= n {
			return Set{}, fmt.Errorf("features: node %d out of range [0,%d)", inf.Node, n)
		}
		ai := m.A.Row(inf.Node)
		vecmath.Add(ai, sum)
		// diverA considers ordered pairs (t_i < t_j); the max over ordered
		// pairs equals the max over all pairs, computed here pairwise.
		for j := 0; j < i; j++ {
			d := vecmath.Dist2(m.A.Row(infs[j].Node), ai)
			if d > diver {
				diver = d
			}
		}
	}
	maxA, _ := vecmath.Max(sum)
	dur := early.Duration()
	rate := float64(early.Size())
	if dur > 0 {
		rate = float64(early.Size()) / dur
	}
	return Set{
		DiverA:     diver,
		NormA:      vecmath.Norm2(sum),
		MaxA:       maxA,
		EarlyCount: float64(early.Size()),
		EarlyRate:  rate,
	}, nil
}

// ExtractAll computes features for every cascade prefix cut at earlyFrac
// of the observation window (the paper uses the first 2/7 of the window
// for SBM experiments and the first 5 hours for GDELT). It returns the
// feature sets alongside the final sizes (the prediction target).
func ExtractAll(m *embed.Model, cs []*cascade.Cascade, earlyCutoff float64) ([]Set, []int, error) {
	var sets []Set
	var sizes []int
	for _, c := range cs {
		early := c.Prefix(earlyCutoff)
		if early.Size() == 0 {
			continue // cascade starts after the early window; unusable
		}
		s, err := Extract(m, early)
		if err != nil {
			return nil, nil, err
		}
		sets = append(sets, s)
		sizes = append(sizes, c.Size())
	}
	return sets, sizes, nil
}
