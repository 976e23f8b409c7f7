package inflmax

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"viralcast/internal/embed"
	"viralcast/internal/xrand"
)

// starModel: node 0 has overwhelming influence; everyone else is quiet.
func starModel(n int) *embed.Model {
	m := embed.NewModel(n, 1)
	m.A.Set(0, 0, 5)
	for v := 0; v < n; v++ {
		m.B.Set(v, 0, 1)
		if v > 0 {
			m.A.Set(v, 0, 0.01)
		}
	}
	return m
}

func TestGreedyPicksTheHub(t *testing.T) {
	m := starModel(20)
	res, err := Greedy(m, 1.0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Node != 0 {
		t.Fatalf("greedy missed the hub: %+v", res)
	}
	// The hub reaches nearly everyone: coverage close to n.
	if res[0].Total < 15 {
		t.Errorf("hub coverage %v unexpectedly low", res[0].Total)
	}
}

func TestGreedyTotalsMatchCoverage(t *testing.T) {
	rng := xrand.New(1)
	m := embed.NewModel(30, 3)
	m.InitUniform(rng, 0, 0.8)
	res, err := Greedy(m, 2.0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("selected %d seeds", len(res))
	}
	seeds := make([]int, len(res))
	for i, r := range res {
		seeds[i] = r.Node
	}
	cov, err := Coverage(m, 2.0, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cov-res[len(res)-1].Total) > 1e-6*(1+cov) {
		t.Fatalf("greedy total %v != Coverage %v", res[len(res)-1].Total, cov)
	}
	// Marginal gains must be non-increasing (submodularity).
	for i := 1; i < len(res); i++ {
		if res[i].Gain > res[i-1].Gain+1e-9 {
			t.Fatalf("gains not diminishing: %+v", res)
		}
	}
}

func TestGreedyBeatsRandomSeeds(t *testing.T) {
	rng := xrand.New(2)
	m := embed.NewModel(40, 2)
	m.InitUniform(rng, 0, 0.6)
	res, err := Greedy(m, 1.5, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	greedyCov := res[len(res)-1].Total
	worse := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		seeds := rng.Perm(40)[:4]
		cov, err := Coverage(m, 1.5, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if cov <= greedyCov+1e-9 {
			worse++
		}
	}
	if worse < trials*9/10 {
		t.Errorf("greedy beaten by %d/%d random seed sets", trials-worse, trials)
	}
}

func TestGreedyCandidatesRestriction(t *testing.T) {
	m := starModel(20)
	// Exclude the hub: greedy must pick from the allowed set only.
	res, err := Greedy(m, 1.0, 2, []int{5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Node != 5 && r.Node != 6 && r.Node != 7 {
			t.Fatalf("seed %d outside candidate set", r.Node)
		}
	}
}

func TestGreedyValidation(t *testing.T) {
	m := starModel(5)
	if _, err := Greedy(nil, 1, 1, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Greedy(m, 0, 1, nil); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Greedy(m, 1, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Greedy(m, 1, 1, []int{99}); err == nil {
		t.Error("bad candidate accepted")
	}
	if _, err := Coverage(m, 1, []int{99}); err == nil {
		t.Error("bad seed accepted in Coverage")
	}
	// k greater than candidates clamps.
	res, err := Greedy(m, 1, 10, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("k clamp failed: %d seeds", len(res))
	}
}

// Property: coverage is monotone in the seed set and bounded by n.
func TestCoverageMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(20)
		m := embed.NewModel(n, 2)
		m.InitUniform(rng, 0, 1)
		perm := rng.Perm(n)
		k := 1 + rng.Intn(n-1)
		small, err := Coverage(m, 1, perm[:k])
		if err != nil {
			return false
		}
		big, err := Coverage(m, 1, perm[:k+1])
		if err != nil {
			return false
		}
		return big >= small-1e-9 && big <= float64(n)+1e-9 && small >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGreedy(b *testing.B) {
	rng := xrand.New(1)
	m := embed.NewModel(500, 4)
	m.InitUniform(rng, 0, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(m, 2.0, 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGreedyCtxCancellation(t *testing.T) {
	m := starModel(400)
	// Already-canceled context: the selection must not run at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GreedyCtx(ctx, m, 1, 5, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled GreedyCtx err = %v, want context.Canceled", err)
	}
	// Cancellation mid-selection: count the Err calls of a whole run,
	// then cancel at the last of them, which the CELF loop makes; the
	// loop must notice.
	count := &cancelAfter{Context: context.Background(), n: math.MaxInt64}
	if _, err := GreedyCtx(count, m, 1, 50, nil); err != nil {
		t.Fatal(err)
	}
	out, err := GreedyCtx(&cancelAfter{Context: context.Background(), n: count.calls.Load()}, m, 1, 50, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-selection GreedyCtx = (%d seeds, %v), want context.Canceled", len(out), err)
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// n-th call on. Its Done channel never closes; the selection polls Err.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

func TestGreedyCtxUncanceledMatchesGreedy(t *testing.T) {
	m := starModel(60)
	a, err := Greedy(m, 1.5, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyCtx(context.Background(), m, 1.5, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Gain != b[i].Gain {
			t.Fatalf("seed %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
