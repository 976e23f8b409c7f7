package serve

import (
	"fmt"
	"os"

	"viralcast/internal/cascade"
	"viralcast/internal/checkpoint"
	"viralcast/internal/core"
	"viralcast/internal/eval"
)

// LoadedModel is one immutable generation of the serving state: the
// fitted system, the virality predictor trained against it (nil when
// prediction is not configured), and the corpus the predictor was
// trained on.
type LoadedModel struct {
	Sys  *core.System
	Pred *core.Predictor
	// Corpus is the cascades Pred was trained on. A flush refits Sys
	// over them and the live store together, then retrains Pred on them
	// at Pred's cutoff and threshold, so predictions track the refit
	// embeddings. Without a corpus a flush keeps the loaded model.
	Corpus []*cascade.Cascade
}

// Loader produces a fresh LoadedModel; it is invoked at startup and on
// every hot reload (SIGHUP / POST /v1/reload). It must not mutate state
// shared with a previously returned model.
type Loader func() (*LoadedModel, error)

// FileLoaderConfig configures FileLoader, the disk-backed Loader the
// `viralcast serve` command uses.
type FileLoaderConfig struct {
	// ModelPath is a versioned embeddings file written by
	// core.System.SaveEmbeddings (legacy bare-CSV files also load).
	// Exactly one of ModelPath and CheckpointPath must be set.
	ModelPath string
	// CheckpointPath is a training checkpoint (internal/checkpoint);
	// serving from the latest snapshot of a still-running fit.
	CheckpointPath string
	// TrainPath is a cascade file used to fit the virality predictor at
	// load time. Empty disables the prediction endpoint.
	TrainPath string
	// EarlyCutoff is the predictor's early-adopter cutoff; <= 0 derives
	// the paper's default, 2/7 of the latest observed infection time.
	EarlyCutoff float64
	// TopFraction marks the top fraction of training-cascade sizes as
	// the viral class; <= 0 defaults to 0.2.
	TopFraction float64
	// Train carries model hyperparameters (notably Seed) for predictor
	// training; Topics is overridden by the loaded embeddings.
	Train core.TrainConfig
}

// FileLoader builds a Loader that re-reads the configured files on every
// call, so a reload picks up whatever is on disk at that moment.
func FileLoader(cfg FileLoaderConfig) (Loader, error) {
	if (cfg.ModelPath == "") == (cfg.CheckpointPath == "") {
		return nil, fmt.Errorf("serve: exactly one of ModelPath and CheckpointPath must be set")
	}
	return func() (*LoadedModel, error) {
		sys, err := loadSystem(cfg)
		if err != nil {
			return nil, err
		}
		lm := &LoadedModel{Sys: sys}
		if cfg.TrainPath == "" {
			return lm, nil
		}
		f, err := os.Open(cfg.TrainPath)
		if err != nil {
			return nil, fmt.Errorf("serve: training cascades: %w", err)
		}
		defer f.Close()
		cs, err := cascade.Read(f)
		if err != nil {
			return nil, fmt.Errorf("serve: training cascades: %w", err)
		}
		if err := cascade.ValidateAll(cs, sys.N); err != nil {
			return nil, fmt.Errorf("serve: training cascades do not fit the %d-node model: %w", sys.N, err)
		}
		early := cfg.EarlyCutoff
		if early <= 0 {
			early = core.DefaultEarlyCutoff(cs)
		}
		frac := cfg.TopFraction
		if frac <= 0 {
			frac = 0.2
		}
		thr := eval.TopFractionThreshold(cascade.Sizes(cs), frac)
		lm.Corpus = cs
		if lm.Pred, err = sys.TrainPredictor(cs, early, thr); err != nil {
			return nil, fmt.Errorf("serve: training predictor: %w", err)
		}
		return lm, nil
	}, nil
}

// loadSystem reads the embeddings from whichever source is configured.
func loadSystem(cfg FileLoaderConfig) (*core.System, error) {
	if cfg.CheckpointPath != "" {
		st, err := checkpoint.Load(cfg.CheckpointPath)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		c := cfg.Train
		c.Topics = st.Model.K()
		return core.NewSystem(st.Model, c), nil
	}
	f, err := os.Open(cfg.ModelPath)
	if err != nil {
		return nil, fmt.Errorf("serve: model: %w", err)
	}
	defer f.Close()
	sys, err := core.LoadSystem(f, cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("serve: model %s: %w", cfg.ModelPath, err)
	}
	return sys, nil
}
