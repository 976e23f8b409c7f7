package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	sbmwork "viralcast/internal/workload"
)

// wideEmbeddingsGolden holds, per topic count, the SHA-256 of the fitted
// A‖B bit patterns on TestTrainEmbeddingsPinned's fixture, recorded when
// Alg. 1's inner step became closed-form EM under the rate prior: at
// K = 8 every column sits in a full block, at K = 6 two columns are
// swept alone ahead of one block.
var wideEmbeddingsGolden = map[int]string{
	6: "012b3e756ac2bed0893c5077d9ad586b5567ce9c0561e12614e2cc05d37a3d57",
	8: "a6e0628b955480bcba13443acf7bc357b23471f85f125c078879a83bfe4cfc89",
}

func TestTrainEmbeddingsPinnedWide(t *testing.T) {
	e := sbmwork.Default()
	e.N, e.Cascades, e.Window, e.Seed = 400, 300, 8, 5
	w, err := sbmwork.Build(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{6, 8} {
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			sys, err := Train(w.Cascades, e.N, TrainConfig{Topics: k, MaxIter: 10, Workers: 2, Seed: 22})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [8]byte
			for _, data := range [][]float64{sys.Embeddings.A.Data, sys.Embeddings.B.Data} {
				for _, v := range data {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			// Pinned only where the goldens were taken (other
			// architectures may fuse multiply-adds).
			if runtime.GOARCH == "amd64" && got != wideEmbeddingsGolden[k] {
				t.Fatalf("K=%d fitted embeddings moved: digest %s, golden %s", k, got, wideEmbeddingsGolden[k])
			}
		})
	}
}
