package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"viralcast/internal/cascade"
	"viralcast/internal/xrand"
)

func TestJaccard(t *testing.T) {
	a := map[int]bool{1: true, 2: true, 3: true}
	b := map[int]bool{2: true, 3: true, 4: true}
	if got := Jaccard(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Jaccard = %v, want 0.5", got)
	}
	if Jaccard(a, a) != 1 {
		t.Error("self Jaccard != 1")
	}
	if Jaccard(a, map[int]bool{9: true}) != 0 {
		t.Error("disjoint Jaccard != 0")
	}
	if Jaccard(nil, nil) != 1 {
		t.Error("empty-empty Jaccard defined as 1")
	}
	if Jaccard(a, nil) != 0 {
		t.Error("nonempty-empty Jaccard != 0")
	}
}

func TestJaccardSymmetricProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := map[int]bool{}, map[int]bool{}
		for _, v := range xs {
			a[int(v%16)] = true
		}
		for _, v := range ys {
			b[int(v%16)] = true
		}
		j := Jaccard(a, b)
		return j == Jaccard(b, a) && j >= 0 && j <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceMatrix(t *testing.T) {
	dm := NewDistanceMatrix(4)
	dm.Set(0, 3, 1.5)
	if dm.At(3, 0) != 1.5 || dm.At(0, 3) != 1.5 {
		t.Fatal("symmetric access broken")
	}
	dm.Set(1, 2, 0.25)
	if dm.At(2, 1) != 0.25 {
		t.Fatal("Set/At roundtrip failed")
	}
	// All pairs addressable without collision.
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k := dm.idx(i, j)
			if seen[k] {
				t.Fatalf("condensed index collision at (%d,%d)", i, j)
			}
			seen[k] = true
		}
	}
	if len(seen) != 6 {
		t.Fatalf("expected 6 distinct indices, got %d", len(seen))
	}
}

func TestDistanceMatrixPanics(t *testing.T) {
	dm := NewDistanceMatrix(3)
	defer func() {
		if recover() == nil {
			t.Fatal("diagonal access did not panic")
		}
	}()
	dm.At(1, 1)
}

// twoBlobs builds 2k observations with tiny intra-group and large
// inter-group distances.
func twoBlobs(k int) *DistanceMatrix {
	n := 2 * k
	dm := NewDistanceMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameGroup := (i < k) == (j < k)
			if sameGroup {
				dm.Set(i, j, 0.1)
			} else {
				dm.Set(i, j, 10)
			}
		}
	}
	return dm
}

func TestWardTwoBlobs(t *testing.T) {
	d := Ward(twoBlobs(5))
	if d.N != 10 || len(d.Merges) != 9 {
		t.Fatalf("dendrogram shape: N=%d merges=%d", d.N, len(d.Merges))
	}
	// Heights must be sorted non-decreasing.
	for i := 1; i < len(d.Merges); i++ {
		if d.Merges[i].Height < d.Merges[i-1].Height {
			t.Fatalf("heights not monotone: %v then %v", d.Merges[i-1].Height, d.Merges[i].Height)
		}
	}
	// The final merge joins everything.
	last := d.Merges[len(d.Merges)-1]
	if last.Size != 10 {
		t.Fatalf("root size = %d", last.Size)
	}
	// The last merge must be dramatically higher than the others.
	if last.Height < 5*d.Merges[len(d.Merges)-2].Height {
		t.Errorf("root height %v not separated from %v",
			last.Height, d.Merges[len(d.Merges)-2].Height)
	}
	// Cut at 2 must recover the blobs.
	labels, err := d.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("blob 1 split: %v", labels)
		}
	}
	for i := 6; i < 10; i++ {
		if labels[i] != labels[5] {
			t.Fatalf("blob 2 split: %v", labels)
		}
	}
	if labels[0] == labels[5] {
		t.Fatalf("blobs merged: %v", labels)
	}
}

func TestCutBounds(t *testing.T) {
	d := Ward(twoBlobs(3))
	if _, err := d.Cut(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := d.Cut(7); err == nil {
		t.Error("k>n accepted")
	}
	all, err := d.Cut(6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range all {
		seen[l] = true
	}
	if len(seen) != 6 {
		t.Fatalf("k=n must give singletons, got %d clusters", len(seen))
	}
	one, err := d.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range one {
		if l != 0 {
			t.Fatalf("k=1 labels: %v", one)
		}
	}
}

func TestTopMerges(t *testing.T) {
	d := Ward(twoBlobs(4))
	top := d.TopMerges(3)
	if len(top) != 3 {
		t.Fatalf("TopMerges length %d", len(top))
	}
	if top[0].Height < top[1].Height || top[1].Height < top[2].Height {
		t.Fatal("TopMerges not in descending height order")
	}
	if top[0].Size != 8 {
		t.Fatalf("highest merge size %d, want 8", top[0].Size)
	}
	if got := d.TopMerges(100); len(got) != len(d.Merges) {
		t.Fatal("TopMerges must clamp to available merges")
	}
}

func TestCascadeDistances(t *testing.T) {
	cs := []*cascade.Cascade{
		{Infections: []cascade.Infection{{Node: 0, Time: 0}, {Node: 1, Time: 1}}},
		{Infections: []cascade.Infection{{Node: 0, Time: 0}, {Node: 1, Time: 2}}},
		{Infections: []cascade.Infection{{Node: 5, Time: 0}}},
	}
	dm := CascadeDistances(cs)
	if dm.At(0, 1) != 0 {
		t.Errorf("identical reporting sets distance = %v, want 0", dm.At(0, 1))
	}
	if dm.At(0, 2) != 1 {
		t.Errorf("disjoint reporting sets distance = %v, want 1", dm.At(0, 2))
	}
}

func TestWardRecoversPlantedCascadeClusters(t *testing.T) {
	// Cascades drawn from three disjoint site pools must cluster by pool
	// (the structure behind Figure 1's regional clusters).
	rng := xrand.New(1)
	var cs []*cascade.Cascade
	truth := make([]int, 0, 60)
	for pool := 0; pool < 3; pool++ {
		base := pool * 100
		for i := 0; i < 20; i++ {
			c := &cascade.Cascade{ID: len(cs)}
			for j := 0; j < 8; j++ {
				c.Infections = append(c.Infections,
					cascade.Infection{Node: base + rng.Intn(30), Time: float64(j)})
			}
			// Deduplicate nodes (Validate not required here, sets suffice).
			cs = append(cs, c)
			truth = append(truth, pool)
		}
	}
	d := Ward(CascadeDistances(cs))
	labels, err := d.Cut(3)
	if err != nil {
		t.Fatal(err)
	}
	// Purity by majority vote.
	agree := 0
	for cl := 0; cl < 3; cl++ {
		counts := map[int]int{}
		for i, l := range labels {
			if l == cl {
				counts[truth[i]]++
			}
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		agree += best
	}
	if purity := float64(agree) / 60; purity < 0.95 {
		t.Errorf("Ward purity %.3f on planted pools", purity)
	}
}

// Property: for random distance matrices, the dendrogram always has n-1
// monotone merges and every Cut(k) is a valid k-partition.
func TestWardStructuralProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(20)
		dm := NewDistanceMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dm.Set(i, j, rng.Float64()+0.01)
			}
		}
		d := Ward(dm)
		if len(d.Merges) != n-1 {
			return false
		}
		for i := 1; i < len(d.Merges); i++ {
			if d.Merges[i].Height < d.Merges[i-1].Height {
				return false
			}
		}
		if d.Merges[len(d.Merges)-1].Size != n {
			return false
		}
		for _, k := range []int{1, 2, n} {
			if k > n {
				continue
			}
			labels, err := d.Cut(k)
			if err != nil {
				return false
			}
			seen := map[int]bool{}
			for _, l := range labels {
				seen[l] = true
			}
			if len(seen) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWard1000(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dm := NewDistanceMatrix(1000)
		for x := 0; x < 1000; x++ {
			for y := x + 1; y < 1000; y++ {
				dm.Set(x, y, rng.Float64())
			}
		}
		b.StartTimer()
		Ward(dm)
	}
}

func TestRenderDendrogram(t *testing.T) {
	d := Ward(twoBlobs(3))
	out := d.RenderDendrogram(2)
	if !strings.Contains(out, "( ") && !strings.Contains(out, "(") {
		t.Fatalf("no annotated nodes:\n%s", out)
	}
	// Root line must carry the total size.
	firstLine := strings.SplitN(out, "\n", 2)[0]
	if !strings.Contains(firstLine, ", 6)") {
		t.Fatalf("root annotation wrong: %q", firstLine)
	}
	// Depth cap: deep subtrees summarized with ellipsis.
	if !strings.Contains(out, "...") {
		t.Errorf("expected summarized subtrees at maxDepth=2:\n%s", out)
	}
	// Full depth shows leaves.
	full := d.RenderDendrogram(100)
	if !strings.Contains(full, "leaf") {
		t.Errorf("full render has no leaves:\n%s", full)
	}
	single := &Dendrogram{N: 1}
	if single.RenderDendrogram(3) == "" {
		t.Error("single-observation render empty")
	}
}
