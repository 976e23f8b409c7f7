package eval

import (
	"fmt"
	"sort"
)

// AUC computes the area under the ROC curve for real-valued scores
// against +1/-1 labels: the probability that a random positive outscores
// a random negative, with ties counted half. It complements the
// threshold-bound F1 of the paper's figures with a threshold-free view
// of the same classifiers (the same cross-validated scores).
func AUC(scores []float64, labels []int) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("eval: %d scores vs %d labels", len(scores), len(labels))
	}
	var pos, neg int
	for _, l := range labels {
		switch l {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return 0, fmt.Errorf("eval: labels must be +1/-1, got %d", l)
		}
	}
	if pos == 0 || neg == 0 {
		return 0, fmt.Errorf("eval: AUC undefined with %d positives and %d negatives", pos, neg)
	}
	// Rank-sum formulation with average ranks for ties:
	// AUC = (R_pos - pos*(pos+1)/2) / (pos*neg).
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	ranks := make([]float64, len(scores))
	i := 0
	for i < len(idx) {
		j := i
		for j+1 < len(idx) && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	var rPos float64
	for i, l := range labels {
		if l == 1 {
			rPos += ranks[i]
		}
	}
	p := float64(pos)
	return (rPos - p*(p+1)/2) / (p * float64(neg)), nil
}
