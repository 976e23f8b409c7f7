package serve

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/eval"
	"viralcast/internal/workload"
)

// TestFlushBookkeeping: a flush refits the current generation over the
// corpus and the usable live cascades, and only when the store changed
// since that generation was loaded or refit. A failed flush leaves the
// count where it was, so the next one refits; a reload loads a
// generation that has absorbed nothing, so the next flush refits it.
func TestFlushBookkeeping(t *testing.T) {
	sys, cs := fixture(t)
	srv, err := New(Config{Loader: fixtureLoader(t)})
	if err != nil {
		t.Fatal(err)
	}
	add := func(id, size int) {
		t.Helper()
		for i := 0; i < size; i++ {
			if _, err := srv.store.Append(Event{Cascade: id, Node: 3*id + i, Time: 0.25 * float64(i)}, fixtureNodes); err != nil {
				t.Fatal(err)
			}
		}
	}
	// flush runs one flush and checks it refit from's embeddings over
	// the corpus and the two usable live cascades into a new generation.
	flush := func(what string, from *core.System) {
		t.Helper()
		want := from.Fork()
		if err := want.Update(slices.Concat(cs, srv.store.Cascades(fixtureNodes))); err != nil {
			t.Fatal(err)
		}
		gen := srv.Generation()
		if got, err := srv.Flush(); err != nil || got != 2 {
			t.Fatalf("%s: refit %d live cascades, err %v; want 2", what, got, err)
		}
		m := srv.current().sys.Sys.Embeddings
		if srv.Generation() != gen+1 || !slices.Equal(m.A.Data, want.Embeddings.A.Data) || !slices.Equal(m.B.Data, want.Embeddings.B.Data) {
			t.Fatalf("%s: generation %d -> %d, or the model is not the refit of the generation it started from", what, gen, srv.Generation())
		}
	}
	idle := func(what string) {
		t.Helper()
		gen := srv.Generation()
		if got, err := srv.Flush(); err != nil || got != 0 || srv.Generation() != gen {
			t.Fatalf("%s: refit %d, err %v, generation %d -> %d; want a no-op", what, got, err, gen, srv.Generation())
		}
	}

	idle("empty store")
	add(5, 6)
	add(6, 3)
	add(9, 1) // a singleton: counted, but nothing to refit
	flush("first flush", sys)
	idle("no event since the last good flush")

	add(7, 1)
	failFirstUpdate(srv, errors.New("injected"))
	if got, err := srv.Flush(); err == nil || got != 0 {
		t.Fatalf("flush under an armed fault: refit %d, err %v", got, err)
	}
	flush("flush after a failed one", srv.current().sys.Sys)
	idle("no event since the retry")

	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	flush("flush after a reload", sys)
	idle("no event since the reload's refit")
}

// failFirstUpdate makes srv's next refit fail with err; the ones after
// it refit for real.
func failFirstUpdate(srv *Server, err error) {
	var calls atomic.Int64
	srv.update = func(sys *core.System, cs []*cascade.Cascade) error {
		if calls.Add(1) == 1 {
			return err
		}
		return sys.Update(cs)
	}
}

// TestFlushDoesNotDrift: ten flushes while the live store grows — each
// round starts 20 cascades and completes the previous round's — must
// leave the serving model's held-out log-likelihood per infection no
// worse than the loaded model's, and within seed spread of a fresh
// core.Train on the cascades the last flush saw. The spread is the
// widest range of the fresh fits' held-out likelihood over Train seeds
// 1–5 in any of the three worlds. A refit on the grown cascades alone,
// with nothing anchoring it to the corpus, ends near −5 here. A daemon
// loaded without its corpus has nothing to anchor a refit, so its
// flushes keep the model it has: every one refits nothing and the
// generation and held-out likelihood stay as loaded (a refit over the
// live store alone took −2.03 to −2.13…−2.25 in ten flushes).
func TestFlushDoesNotDrift(t *testing.T) {
	const n, corpusN, liveN, heldN, rounds = 200, 300, 200, 150, 10
	type world struct{ start, final, worstFresh float64 }
	var worlds []world
	spread := 0.0
	for _, seed := range []uint64{1, 2, 3} {
		c := workload.Default()
		c.N, c.Cascades, c.Window, c.Seed = n, corpusN+liveN+heldN, 8, seed
		d, err := workload.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		corpus, live, held := d.Cascades[:corpusN], d.Cascades[corpusN:corpusN+liveN], d.Cascades[corpusN+liveN:]
		infections := 0
		for _, c := range held {
			infections += c.Size()
		}
		heldOut := func(s *core.System) float64 {
			return s.Embeddings.LogLikAll(held) / float64(infections)
		}
		cfg := core.TrainConfig{Topics: 2, MaxIter: 20, Workers: 2, Seed: seed}
		sys, err := core.Train(corpus, n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := sys.TrainPredictor(corpus, 8*2.0/7.0, eval.TopFractionThreshold(cascade.Sizes(corpus), 0.25))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Loader: func() (*LoadedModel, error) {
			return &LoadedModel{Sys: sys, Pred: pred, Corpus: corpus}, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		bare, err := New(Config{Loader: func() (*LoadedModel, error) {
			return &LoadedModel{Sys: sys, Pred: pred}, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		feed := func(c *cascade.Cascade, from, to int) {
			for _, inf := range c.Infections[from:to] {
				for _, s := range []*Server{srv, bare} {
					if _, err := s.store.Append(Event{Cascade: c.ID, Node: inf.Node, Time: inf.Time}, n); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		w := world{start: heldOut(sys)}
		per := liveN / rounds
		for r := 0; r < rounds; r++ {
			for _, c := range live[r*per : (r+1)*per] {
				feed(c, 0, (c.Size()+1)/2)
			}
			if r > 0 {
				for _, c := range live[(r-1)*per : r*per] {
					feed(c, (c.Size()+1)/2, c.Size())
				}
			}
			if got, err := srv.Flush(); err != nil || got == 0 {
				t.Fatalf("seed %d, flush %d: refit %d live cascades, err %v", seed, r+1, got, err)
			}
			gen := bare.Generation()
			if got, err := bare.Flush(); err != nil || got != 0 || bare.Generation() != gen {
				t.Fatalf("seed %d, flush %d without a corpus: refit %d live cascades, err %v, generation %d -> %d; want the loaded model kept",
					seed, r+1, got, err, gen, bare.Generation())
			}
		}
		w.final = heldOut(srv.current().sys.Sys)
		if kept := heldOut(bare.current().sys.Sys); kept != w.start {
			t.Errorf("seed %d: %d flushes without a corpus took held-out LL per infection from %.4f to %.4f", seed, rounds, w.start, kept)
		}

		seen := append(append([]*cascade.Cascade(nil), corpus...), srv.store.Cascades(n)...)
		lo, hi := 0.0, 0.0
		for s := uint64(1); s <= 5; s++ {
			cfg.Seed = s
			fresh, err := core.Train(seen, n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ll := heldOut(fresh)
			if s == 1 || ll < lo {
				lo = ll
			}
			if s == 1 || ll > hi {
				hi = ll
			}
		}
		w.worstFresh = lo
		spread = max(spread, hi-lo)
		t.Logf("seed %d: held-out LL per infection %.4f loaded, %.4f after %d flushes; fresh Train [%.4f, %.4f]",
			seed, w.start, w.final, rounds, lo, hi)
		worlds = append(worlds, w)
	}
	for i, w := range worlds {
		if w.final < w.start {
			t.Errorf("seed %d: %d flushes took held-out LL per infection from %.4f to %.4f", i+1, rounds, w.start, w.final)
		}
		if w.final < w.worstFresh-spread {
			t.Errorf("seed %d: held-out LL per infection %.4f after %d flushes, below the worst fresh Train's %.4f by more than the seed spread %.4f",
				i+1, w.final, rounds, w.worstFresh, spread)
		}
	}
}
