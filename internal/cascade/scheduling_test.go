package cascade_test

import (
	"runtime"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/workload"
	"viralcast/internal/xrand"
)

// TestSchedulingShare counts, on the n = 800 SBM world the benchmark's
// train fixture is drawn from, how much of the simulator's work can
// reach a cascade: of the tentative infections drawn, how many needed
// a logarithm and how many were scheduled. A simulator that heaps every
// attempt reads scheduled == attempts; the shares below are why it does
// not: an attempt is heaped only inside the window and ahead of its
// target's pending time. The counts are a function of the seeds alone
// and repeat exactly; attempts (uniforms drawn) must never move.
func TestSchedulingShare(t *testing.T) {
	e := workload.Default()
	e.N, e.Cascades, e.Window = 800, 3, 8
	w, err := workload.Build(e)
	if err != nil {
		t.Fatal(err)
	}
	graphSim, err := cascade.NewSimulator(w.Graph, w.Truth.A, w.Truth.B, e.Window)
	if err != nil {
		t.Fatal(err)
	}
	// Dense mode as the scenario engine runs it: no graph, a horizon of 1.
	denseSim, err := cascade.NewDenseSimulator(w.Truth.A, w.Truth.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                      string
		sim                       *cascade.Simulator
		trials                    int
		maxShare                  float64
		attempts, logs, scheduled int // amd64; other ports may fuse the rate's multiply-adds
	}{
		{"graph", graphSim, 2500, 0.35, 388126, 104291, 86951},
		{"dense", denseSim, 100, 0.10, 4674360, 139077, 125170},
	} {
		ws := new(cascade.TrialScratch)
		rng := xrand.New(21)
		for i := 0; i < c.trials; i++ {
			if _, err := c.sim.RunSeedsScratch(ws, i, []int{rng.Intn(e.N)}, 0, rng); err != nil {
				t.Fatal(err)
			}
		}
		attempts, logs, scheduled := ws.Counts()
		share := float64(scheduled) / float64(attempts)
		t.Logf("%s: %d attempts, %d logarithms (%.3f), %d scheduled (%.3f)",
			c.name, attempts, logs, float64(logs)/float64(attempts), scheduled, share)
		if !(scheduled <= logs && logs <= attempts) || share > c.maxShare {
			t.Errorf("%s: scheduled share %.3f, want <= %.2f with scheduled <= logarithms <= attempts", c.name, share, c.maxShare)
		}
		if runtime.GOARCH == "amd64" && (attempts != c.attempts || logs != c.logs || scheduled != c.scheduled) {
			t.Errorf("%s: counts moved: got %d / %d / %d, pinned %d / %d / %d",
				c.name, attempts, logs, scheduled, c.attempts, c.logs, c.scheduled)
		}
	}
}
