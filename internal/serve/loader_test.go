package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/checkpoint"
	"viralcast/internal/core"
)

// writeFixtureFiles persists the shared fixture to disk in the formats
// the daemon loads: signed embeddings + cascade text.
func writeFixtureFiles(t *testing.T) (modelPath, cascadePath string) {
	t.Helper()
	sys, cs := fixture(t)
	dir := t.TempDir()
	modelPath = filepath.Join(dir, "model.txt")
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveEmbeddings(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cascadePath = filepath.Join(dir, "cascades.txt")
	cf, err := os.Create(cascadePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cascade.Write(cf, cs); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	return modelPath, cascadePath
}

func TestFileLoaderFromEmbeddings(t *testing.T) {
	modelPath, cascadePath := writeFixtureFiles(t)
	loader, err := FileLoader(FileLoaderConfig{
		ModelPath: modelPath,
		TrainPath: cascadePath,
		Train:     core.TrainConfig{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	if lm.Sys.N != fixtureNodes {
		t.Fatalf("loaded %d nodes, want %d", lm.Sys.N, fixtureNodes)
	}
	if lm.Pred == nil {
		t.Fatal("predictor not trained despite TrainPath")
	}
	if len(lm.Corpus) == 0 {
		t.Fatal("the predictor's corpus is missing")
	}
	// The default early cutoff is positive and derived from the data.
	if lm.Pred.EarlyCutoff() <= 0 {
		t.Fatalf("early cutoff %v", lm.Pred.EarlyCutoff())
	}
}

func TestFileLoaderWithoutPredictor(t *testing.T) {
	modelPath, _ := writeFixtureFiles(t)
	loader, err := FileLoader(FileLoaderConfig{ModelPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	if lm.Pred != nil || lm.Corpus != nil {
		t.Fatal("predictor trained without TrainPath")
	}
}

func TestFileLoaderFromCheckpoint(t *testing.T) {
	sys, _ := fixture(t)
	path := filepath.Join(t.TempDir(), "fit.ckpt")
	err := checkpoint.Save(path, &checkpoint.State{Model: sys.Embeddings, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	loader, err := FileLoader(FileLoaderConfig{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	if lm.Sys.N != fixtureNodes {
		t.Fatalf("checkpoint loaded %d nodes, want %d", lm.Sys.N, fixtureNodes)
	}
}

func TestFileLoaderRejectsBadConfigs(t *testing.T) {
	if _, err := FileLoader(FileLoaderConfig{}); err == nil {
		t.Error("no source accepted")
	}
	if _, err := FileLoader(FileLoaderConfig{ModelPath: "a", CheckpointPath: "b"}); err == nil {
		t.Error("two sources accepted")
	}
}

// TestFileLoaderRejectsForeignAndTruncated is the satellite guarantee:
// the server refuses garbage model files with a clear error instead of
// serving garbage matrices.
func TestFileLoaderRejectsForeignAndTruncated(t *testing.T) {
	modelPath, _ := writeFixtureFiles(t)
	data, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	foreign := filepath.Join(dir, "foreign.txt")
	os.WriteFile(foreign, []byte("PK\x03\x04 definitely a zip file\n"), 0o644)
	loader, _ := FileLoader(FileLoaderConfig{ModelPath: foreign})
	if _, err := loader(); err == nil || !strings.Contains(err.Error(), "not a viralcast embeddings file") {
		t.Errorf("foreign file error = %v, want 'not a viralcast embeddings file'", err)
	}

	truncated := filepath.Join(dir, "truncated.txt")
	os.WriteFile(truncated, data[:len(data)-37], 0o644)
	loader, _ = FileLoader(FileLoaderConfig{ModelPath: truncated})
	if _, err := loader(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated file error = %v, want mention of truncation", err)
	}

	corrupt := filepath.Join(dir, "corrupt.txt")
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-2] ^= 0x01 // damage the payload, keep the length
	os.WriteFile(corrupt, flipped, 0o644)
	loader, _ = FileLoader(FileLoaderConfig{ModelPath: corrupt})
	if _, err := loader(); err == nil {
		t.Error("bit-flipped payload accepted")
	}
}
