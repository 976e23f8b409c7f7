package core

import (
	"fmt"
	"sync"

	"viralcast/internal/cascade"
	"viralcast/internal/features"
)

// BatchResult is one cascade's slot in a batched prediction: a
// classifier verdict, or the per-item error that excluded it. Errors
// carry exactly the message the single-request PredictViral path
// produces for the same cascade, so a batched caller sees the same
// contract item by item.
type BatchResult struct {
	Viral  bool
	Margin float64
	Err    error
}

// FeatureResult is one cascade's slot in a batched feature extraction.
type FeatureResult struct {
	Set features.Set
	Err error
}

// batchScratch is one batched call's reusable workspace: the early
// prefixes, the per-item extraction errors, the margin vector the
// blocked kernel writes, and — for PredictViralBatch, which chains the
// two passes — the extracted feature sets. Nothing in it escapes the
// call.
type batchScratch struct {
	earlies []*cascade.Cascade
	views   []cascade.Cascade
	errs    []error
	margins []float64
	feats   []FeatureResult
	sets    []features.Set
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// cutEarlies fills the early-prefix slot of every cascade, preferring
// the aliasing PrefixView (live-store snapshots are time-sorted, so the
// view almost always applies) over a copying Prefix, and recording the
// single-path error for cascades with no early adopters.
func (ws *batchScratch) cutEarlies(cs []*cascade.Cascade, cutoff float64) {
	for i, c := range cs {
		var early *cascade.Cascade
		if v, ok := c.PrefixView(cutoff); ok {
			ws.views[i] = v
			early = &ws.views[i]
		} else {
			early = c.Prefix(cutoff)
		}
		if early.Size() == 0 {
			ws.errs[i] = fmt.Errorf("core: cascade %d has no infections before the early cutoff %v", c.ID, cutoff)
			continue
		}
		ws.earlies[i] = early
	}
}

// grow readies the scratch for n items, reusing prior capacity.
func (ws *batchScratch) grow(n int) {
	if cap(ws.earlies) < n {
		ws.earlies = make([]*cascade.Cascade, n)
		ws.views = make([]cascade.Cascade, n)
		ws.errs = make([]error, n)
		ws.margins = make([]float64, n)
		ws.feats = make([]FeatureResult, n)
		ws.sets = make([]features.Set, n)
	}
	ws.earlies = ws.earlies[:n]
	ws.views = ws.views[:n]
	ws.errs = ws.errs[:n]
	ws.margins = ws.margins[:n]
	ws.feats = ws.feats[:n]
	ws.sets = ws.sets[:n]
	for i := range ws.earlies {
		ws.earlies[i] = nil
		ws.errs[i] = nil
	}
}

// PredictViralBatch classifies a whole batch of cascades in one pass:
// the paper's pipeline as two blocked steps, FeaturesBatch over every
// early prefix and ClassifyBatch over the sets it extracted. Each step
// performs, per item, the identical float operations in the identical
// order as PredictViral, so out[i] is bit-identical to a single call on
// cs[i] — the batch form amortizes workspace churn and call overhead,
// it does not approximate. A bad cascade fails only its own slot.
//
// out must have at least len(cs) slots.
func (p *Predictor) PredictViralBatch(cs []*cascade.Cascade, out []BatchResult) {
	if len(out) < len(cs) {
		panic(fmt.Sprintf("core: PredictViralBatch %d cascades into %d result slots", len(cs), len(out)))
	}
	ws, _ := batchScratchPool.Get().(*batchScratch)
	ws.grow(len(cs))
	p.FeaturesBatch(cs, ws.feats)
	// Error slots classify a zero set: harmless garbage that the error
	// masks below, and it keeps the kernels branch-free.
	for i := range cs {
		ws.sets[i] = ws.feats[i].Set
	}
	p.ClassifyBatch(ws.sets, out)
	for i := range cs {
		if err := ws.feats[i].Err; err != nil {
			out[i] = BatchResult{Err: err}
		}
	}
	batchScratchPool.Put(ws)
}

// ClassifyBatch applies the trained classifier to feature sets already
// extracted — the second half of the paper's pipeline, on its own so a
// caller that keeps a cascade's early-adopter features (they cannot
// change once its early window is complete) classifies them again
// without re-extracting: the predictor's features are selected out of
// every set into one contiguous pooled block, standardized in place
// (svm.Standardizer.ApplyBlock), and all margins come out of one blocked
// matrix–vector kernel (svm.Model.DecisionBlock). Per item these are
// the float operations PredictViral runs after its extraction.
//
// out must have at least len(sets) slots.
func (p *Predictor) ClassifyBatch(sets []features.Set, out []BatchResult) {
	if len(out) < len(sets) {
		panic(fmt.Sprintf("core: ClassifyBatch %d feature sets into %d result slots", len(sets), len(out)))
	}
	ws, _ := batchScratchPool.Get().(*batchScratch)
	ws.grow(len(sets))
	dim := len(p.names)
	blk := features.GetBlock(len(sets), dim)
	for i := range sets {
		// The three-index slice caps the append at this row, so the
		// selection lands exactly where the kernels read it.
		at := i * dim
		if _, err := sets[i].SelectAppend(blk.Data[at:at:at+dim], p.names); err != nil {
			ws.errs[i] = err
		}
	}
	p.std.ApplyBlock(blk.Data, len(sets), dim)
	p.model.DecisionBlock(ws.margins, blk.Data, dim)
	for i := range sets {
		if err := ws.errs[i]; err != nil {
			out[i] = BatchResult{Err: err}
			continue
		}
		m := ws.margins[i]
		out[i] = BatchResult{Viral: m >= 0, Margin: m}
	}
	features.PutBlock(blk)
	batchScratchPool.Put(ws)
}

// FeaturesBatch extracts the full feature set of every cascade's early
// prefix (cut at the predictor's cutoff) into one contiguous pooled
// block. Per-item errors mirror the single-request extraction contract.
//
// out must have at least len(cs) slots.
func (p *Predictor) FeaturesBatch(cs []*cascade.Cascade, out []FeatureResult) {
	if len(out) < len(cs) {
		panic(fmt.Sprintf("core: FeaturesBatch %d cascades into %d result slots", len(cs), len(out)))
	}
	ws, _ := batchScratchPool.Get().(*batchScratch)
	ws.grow(len(cs))
	ws.cutEarlies(cs, p.early)
	dim := len(features.Names)
	blk := features.GetBlock(len(cs), dim)
	features.ExtractBatch(p.system.Embeddings, ws.earlies, features.Names, blk, ws.errs)
	for i := range cs {
		if err := ws.errs[i]; err != nil {
			out[i] = FeatureResult{Err: err}
			continue
		}
		row := blk.Row(i)
		out[i] = FeatureResult{Set: features.Set{
			DiverA:     row[0],
			NormA:      row[1],
			MaxA:       row[2],
			EarlyCount: row[3],
			EarlyRate:  row[4],
		}}
	}
	features.PutBlock(blk)
	batchScratchPool.Put(ws)
}
