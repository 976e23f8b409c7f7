package core

import (
	"math"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/features"
)

// TestPredictViralBatchBitIdentical is the batch plane's foundational
// contract: every slot of a batched prediction must equal the
// single-call answer for that cascade exactly — same verdict, same
// margin down to the float bits, same error message — across batch
// sizes that exercise the blocked kernel's 4-row main loop and its
// remainder tail, with healthy and broken cascades interleaved.
func TestPredictViralBatchBitIdentical(t *testing.T) {
	cs := workload(t, 80, 300, 8)
	sys, err := Train(cs[:200], 80, TrainConfig{Topics: 2, MaxIter: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sys.TrainPredictor(cs[:200], 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Mix in cascades that fail per item: one starting after the early
	// cutoff, one with an out-of-universe node.
	late := &cascade.Cascade{ID: 9001, Infections: []cascade.Infection{{Node: 1, Time: 99}}}
	alien := &cascade.Cascade{ID: 9002, Infections: []cascade.Infection{{Node: 80, Time: 0.1}}}
	mixed := append([]*cascade.Cascade{late, alien}, cs[200:]...)

	for _, size := range []int{1, 2, 3, 4, 5, 16, len(mixed)} {
		batch := mixed[:size]
		out := make([]BatchResult, size)
		pred.PredictViralBatch(batch, out)
		for i, c := range batch {
			viral, margin, err := pred.PredictViral(c)
			if (err == nil) != (out[i].Err == nil) {
				t.Fatalf("size %d item %d: batch err %v, single err %v", size, i, out[i].Err, err)
			}
			if err != nil {
				if out[i].Err.Error() != err.Error() {
					t.Fatalf("size %d item %d: batch error %q != single error %q", size, i, out[i].Err, err)
				}
				continue
			}
			if out[i].Viral != viral ||
				math.Float64bits(out[i].Margin) != math.Float64bits(margin) {
				t.Fatalf("size %d item %d: batch (%v, %x) != single (%v, %x)",
					size, i, out[i].Viral, out[i].Margin, viral, margin)
			}
		}
	}
}

// TestFeaturesBatchBitIdentical checks the batched extraction path
// against per-cascade Extract through System.Features.
func TestFeaturesBatchBitIdentical(t *testing.T) {
	cs := workload(t, 60, 120, 14)
	sys, err := Train(cs, 60, TrainConfig{Topics: 2, MaxIter: 6, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sys.TrainPredictor(cs, 0.5, 3)
	if err != nil {
		t.Skip("workload degenerate for this seed")
	}
	late := &cascade.Cascade{ID: 9001, Infections: []cascade.Infection{{Node: 1, Time: 99}}}
	batch := append([]*cascade.Cascade{late}, cs[:50]...)
	out := make([]FeatureResult, len(batch))
	pred.FeaturesBatch(batch, out)
	for i, c := range batch {
		early := c.Prefix(pred.EarlyCutoff())
		if early.Size() == 0 {
			if out[i].Err == nil {
				t.Fatalf("item %d: empty prefix not rejected", i)
			}
			continue
		}
		want, err := sys.Features(early)
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Err != nil {
			t.Fatalf("item %d: unexpected error %v", i, out[i].Err)
		}
		if out[i].Set != want {
			t.Fatalf("item %d: batch set %+v != single set %+v", i, out[i].Set, want)
		}
	}
	// The block must select in features.Names order for the Set rebuild
	// above to be sound; guard the assumption against reordering.
	if features.Names[0] != "diverA" || features.Names[4] != "earlyRate" {
		t.Fatal("features.Names order changed; FeaturesBatch row mapping is stale")
	}
}

// TestClassifyBatchOfFeaturesBatchBitIdentical holds the pipeline split
// to the scalar path: the features FeaturesBatch extracts, classified
// later by ClassifyBatch — as a caller that kept them does — answer
// every cascade exactly as PredictViral does, margins down to the bits.
func TestClassifyBatchOfFeaturesBatchBitIdentical(t *testing.T) {
	cs := workload(t, 80, 300, 8)
	sys, err := Train(cs[:200], 80, TrainConfig{Topics: 2, MaxIter: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sys.TrainPredictor(cs[:200], 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var batch []*cascade.Cascade
	for _, c := range cs[200:] {
		if c.Prefix(pred.EarlyCutoff()).Size() > 0 {
			batch = append(batch, c)
		}
	}
	feats := make([]FeatureResult, len(batch))
	pred.FeaturesBatch(batch, feats)
	sets := make([]features.Set, len(batch))
	for i, f := range feats {
		if f.Err != nil {
			t.Fatalf("item %d: %v", i, f.Err)
		}
		sets[i] = f.Set
	}
	out := make([]BatchResult, len(batch))
	pred.ClassifyBatch(sets, out)
	for i, c := range batch {
		viral, margin, err := pred.PredictViral(c)
		if err != nil || out[i].Err != nil {
			t.Fatalf("item %d: single err %v, classify err %v", i, err, out[i].Err)
		}
		if out[i].Viral != viral || math.Float64bits(out[i].Margin) != math.Float64bits(margin) {
			t.Fatalf("item %d: classified (%v, %x) != single (%v, %x)", i, out[i].Viral, out[i].Margin, viral, margin)
		}
	}
}
