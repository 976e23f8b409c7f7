package cascade

import (
	"context"
	"testing"

	"viralcast/internal/xrand"
)

func TestNewDenseSimulatorValidation(t *testing.T) {
	a, b := constMatrix(4, 2, 0.5), constMatrix(4, 2, 0.5)
	if _, err := NewDenseSimulator(a, b, 10); err != nil {
		t.Fatalf("valid dense simulator rejected: %v", err)
	}
	cases := []struct {
		name string
		fn   func() (*Simulator, error)
	}{
		{"nil A", func() (*Simulator, error) { return NewDenseSimulator(nil, b, 10) }},
		{"rows mismatch", func() (*Simulator, error) { return NewDenseSimulator(constMatrix(3, 2, 1), b, 10) }},
		{"topic mismatch", func() (*Simulator, error) { return NewDenseSimulator(constMatrix(4, 3, 1), b, 10) }},
		{"bad window", func() (*Simulator, error) { return NewDenseSimulator(a, b, 0) }},
	}
	for _, c := range cases {
		if _, err := c.fn(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	neg := constMatrix(4, 2, 1)
	neg.Set(0, 0, -1)
	if _, err := NewDenseSimulator(neg, b, 10); err == nil {
		t.Error("negative embedding accepted")
	}
}

func TestDenseRunReachesAllPositivePairs(t *testing.T) {
	// Uniform positive rates with an effectively infinite window: the
	// dense topology must infect every node from any seed.
	s, err := NewDenseSimulator(constMatrix(6, 2, 1), constMatrix(6, 2, 1), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Run(0, 3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 6 {
		t.Fatalf("dense cascade size %d, want 6: %+v", c.Size(), c.Infections)
	}
	if err := ValidateAll([]*Cascade{c}, 6); err != nil {
		t.Fatal(err)
	}
}

func TestDenseZeroRateRowsNeverInfected(t *testing.T) {
	// Node 4's selectivity row is zero: no one can ever infect it.
	a := constMatrix(5, 2, 1)
	b := constMatrix(5, 2, 1)
	b.Set(4, 0, 0)
	b.Set(4, 1, 0)
	s, err := NewDenseSimulator(a, b, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		c, err := s.Run(trial, 0, xrand.New(uint64(trial)+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, inf := range c.Infections {
			if inf.Node == 4 {
				t.Fatalf("zero-selectivity node infected at %v", inf.Time)
			}
		}
		if c.Size() != 4 {
			t.Fatalf("trial %d size %d, want 4", trial, c.Size())
		}
	}
}

func TestRunSeedsCampaign(t *testing.T) {
	s, err := NewDenseSimulator(constMatrix(8, 2, 1), constMatrix(8, 2, 1), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.RunSeeds(0, []int{2, 5, 2}, 0, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate seeds collapse; both distinct seeds start at time 0.
	at0 := map[int]bool{}
	for _, inf := range c.Infections {
		if inf.Time == 0 {
			at0[inf.Node] = true
		}
	}
	if len(at0) != 2 || !at0[2] || !at0[5] {
		t.Fatalf("time-0 infections = %v, want exactly {2, 5}", at0)
	}
	if err := ValidateAll([]*Cascade{c}, 8); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 8 {
		t.Fatalf("campaign with infinite window must fully infect, size=%d", c.Size())
	}

	if _, err := s.RunSeeds(0, nil, 0, xrand.New(1)); err == nil {
		t.Error("empty seed set accepted")
	}
	if _, err := s.RunSeeds(0, []int{8}, 0, xrand.New(1)); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

func TestRunSeedsMaxSizeEarlyStop(t *testing.T) {
	s, err := NewDenseSimulator(constMatrix(50, 2, 1), constMatrix(50, 2, 1), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.RunSeeds(0, []int{0}, 5, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 5 {
		t.Fatalf("early-stopped cascade size %d, want 5", c.Size())
	}
	// The truncated prefix must match the unbounded run exactly: the
	// early stop changes where the simulation ends, not how it unfolds.
	full, err := s.RunSeeds(0, []int{0}, 0, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, inf := range c.Infections {
		if full.Infections[i] != inf {
			t.Fatalf("infection %d differs under early stop: %+v vs %+v", i, inf, full.Infections[i])
		}
	}
}

func TestRunManyCtxCancellation(t *testing.T) {
	s, err := NewDenseSimulator(constMatrix(20, 2, 0.5), constMatrix(20, 2, 0.5), 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunManyCtx(ctx, 0, 100, xrand.New(1)); err != context.Canceled {
		t.Fatalf("canceled RunManyCtx = %v, want context.Canceled", err)
	}
	// An open context must behave exactly like RunMany.
	cs, err := s.RunManyCtx(context.Background(), 0, 10, xrand.New(2))
	if err != nil || len(cs) != 10 {
		t.Fatalf("RunManyCtx = %d cascades, err %v", len(cs), err)
	}
}

func TestGraphModeUnchangedThroughRunSeeds(t *testing.T) {
	// The single-seed graph path must produce identical cascades through
	// the new RunSeeds plumbing (regression guard for the refactor).
	g := lineGraph(t, 10)
	s, _ := NewSimulator(g, constMatrix(10, 1, 1), constMatrix(10, 1, 1), 4)
	c1, err := s.Run(0, 0, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.RunSeeds(0, []int{0}, 0, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Infections) != len(c2.Infections) {
		t.Fatalf("sizes differ: %d vs %d", len(c1.Infections), len(c2.Infections))
	}
	for i := range c1.Infections {
		if c1.Infections[i] != c2.Infections[i] {
			t.Fatalf("infection %d differs", i)
		}
	}
}
