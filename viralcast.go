// Package viralcast reproduces "Predicting Viral News Events in Online
// Media" (Lu & Szymanski, ParSocial @ IPDPSW 2017): topic-specific
// influence/selectivity node embeddings inferred from information
// cascades with a community-parallel hierarchical fit (closed-form EM
// steps), and early-stage prediction of viral cascades from the
// embeddings of their first adopters.
//
// This file is the public façade. The minimal workflow:
//
//	cs, _ := cascade.Read(file)                    // or simulate your own
//	sys, _ := viralcast.Train(cs, nNodes, viralcast.TrainConfig{Topics: 4})
//	pred, _ := sys.TrainPredictor(cs, earlyCutoff, sizeThreshold)
//	viral, margin, _ := pred.PredictViral(newCascade)
//
// Subsystems (simulator, SBM generator, SLPA communities, Ward
// clustering, metrics, the synthetic GDELT corpus, figure harnesses)
// live in internal packages and are exercised by the executables under
// cmd/ and the Example functions in example_test.go.
package viralcast

import (
	"context"
	"fmt"
	"io"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/eval"
	"viralcast/internal/workload"
)

// Cascade is a time-ordered sequence of node infections — the unit of
// observation throughout the library.
type Cascade = cascade.Cascade

// Infection is one (node, time) report inside a cascade.
type Infection = cascade.Infection

// TrainConfig configures Train; the zero value uses library defaults.
type TrainConfig = core.TrainConfig

// System is a fitted model: influence and selectivity embeddings plus
// the detected community structure.
type System = core.System

// Predictor is a trained early-stage virality classifier.
type Predictor = core.Predictor

// Influencer is a node ranked by total inferred influence.
type Influencer = core.Influencer

// Confusion is a binary confusion matrix with Precision/Recall/F1/
// Accuracy methods.
type Confusion = eval.Confusion

// Train fits the embeddings from observed cascades over n nodes using
// the paper's full pipeline: co-occurrence graph, SLPA communities, and
// hierarchical community-parallel closed-form EM.
func Train(cs []*Cascade, n int, cfg TrainConfig) (*System, error) {
	return core.Train(cs, n, cfg)
}

// TrainCtx is Train with cancellation and fault tolerance: canceling ctx
// stops the fit at the next consistency boundary (writing a final
// snapshot when cfg.CheckpointPath is set), and cfg.Resume continues an
// interrupted run from its checkpoint file.
func TrainCtx(ctx context.Context, cs []*Cascade, n int, cfg TrainConfig) (*System, error) {
	return core.TrainCtx(ctx, cs, n, cfg)
}

// LoadSystem rebuilds a fitted System from embeddings previously saved
// with System.SaveEmbeddings.
func LoadSystem(r io.Reader, cfg TrainConfig) (*System, error) {
	return core.LoadSystem(r, cfg)
}

// SimulateSBM generates a demo workload: a stochastic block-model
// network with a planted influence/selectivity model, and `count`
// cascades simulated from it under the continuous-time propagation
// model. Returned cascades are over node ids [0, n).
func SimulateSBM(n, count int, window float64, seed uint64) ([]*Cascade, error) {
	if count < 2 {
		return nil, fmt.Errorf("viralcast: need at least 2 cascades, got %d", count)
	}
	c := workload.Default()
	c.N = n
	c.Cascades = count
	c.Window = window
	c.Seed = seed
	d, err := workload.Build(c)
	if err != nil {
		return nil, err
	}
	return d.Cascades, nil
}

// TopSizeThreshold returns the cascade-size threshold that marks the top
// `frac` fraction of the given cascades as viral.
func TopSizeThreshold(cs []*Cascade, frac float64) int {
	return eval.TopFractionThreshold(cascade.Sizes(cs), frac)
}

// DefaultEarlyCutoff returns the paper's early-adopter cutoff for the
// given cascades: 2/7 of their latest infection time.
func DefaultEarlyCutoff(cs []*Cascade) float64 { return core.DefaultEarlyCutoff(cs) }

// WriteCascades encodes cascades in the library's text format
// (cascadeID,node,time per line); ReadCascades decodes it.
func WriteCascades(w io.Writer, cs []*Cascade) error { return cascade.Write(w, cs) }

// ReadCascades decodes the format produced by WriteCascades.
func ReadCascades(r io.Reader) ([]*Cascade, error) { return cascade.Read(r) }
