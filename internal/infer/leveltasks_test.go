package infer

import (
	"reflect"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/slpa"
	"viralcast/internal/xrand"
)

// buildTasksViaSplit is the level's task construction as it was before
// levelTasks: SplitCascades, then a node → local id map per community
// and a second copy of every infection. Kept as levelTasks's oracle.
func buildTasksViaSplit(cs []*cascade.Cascade, p *slpa.Partition) []communityTask {
	subs := SplitCascades(cs, p)
	tasks := make([]communityTask, p.NumCommunities())
	for r := range tasks {
		nodes := p.Communities[r]
		local := make(map[int]int, len(nodes))
		for li, u := range nodes {
			local[u] = li
		}
		lcs := make([]*cascade.Cascade, 0, len(subs[r]))
		for _, sub := range subs[r] {
			lc := &cascade.Cascade{ID: sub.ID, Infections: make([]cascade.Infection, len(sub.Infections))}
			for i, inf := range sub.Infections {
				lc.Infections[i] = cascade.Infection{Node: local[inf.Node], Time: inf.Time}
			}
			lcs = append(lcs, lc)
		}
		tasks[r] = communityTask{nodes: nodes, localCs: lcs}
	}
	return tasks
}

// randomCascades draws count cascades over n nodes with sizes in
// [0, maxSize], including empty and single-infection ones.
func randomCascades(n, count, maxSize int, rng *xrand.RNG) []*cascade.Cascade {
	cs := make([]*cascade.Cascade, count)
	for id := range cs {
		c := &cascade.Cascade{ID: 100 + id}
		perm := rng.Perm(n)
		tm := 0.0
		for _, u := range perm[:rng.Intn(min(maxSize, n)+1)] {
			tm += rng.Float64()
			c.Infections = append(c.Infections, cascade.Infection{Node: u, Time: tm})
		}
		cs[id] = c
	}
	return cs
}

// withEmptyCommunities inserts memberless communities at the front, in
// the middle and at the end of p, which Partition.Validate allows.
func withEmptyCommunities(p *slpa.Partition) *slpa.Partition {
	mid := p.NumCommunities() / 2
	out := &slpa.Partition{Membership: make([]int, len(p.Membership))}
	out.Communities = append(out.Communities, nil)
	out.Communities = append(out.Communities, p.Communities[:mid]...)
	out.Communities = append(out.Communities, []int{})
	out.Communities = append(out.Communities, p.Communities[mid:]...)
	out.Communities = append(out.Communities, nil)
	for r, nodes := range out.Communities {
		for _, u := range nodes {
			out.Membership[u] = r
		}
	}
	return out
}

func TestLevelTasksMatchSplitAndLocalize(t *testing.T) {
	const n = 90
	rng := xrand.New(51)
	randomMembership := func(communities int) []int {
		out := make([]int, n)
		for u := range out {
			out[u] = rng.Intn(communities)
		}
		return out
	}
	singletons := make([]int, n)
	for u := range singletons {
		singletons[u] = u
	}
	partitions := map[string]*slpa.Partition{
		"random 7":            slpa.FromMembership(randomMembership(7)),
		"random 30":           slpa.FromMembership(randomMembership(30)),
		"blocks":              slpa.FromMembership(blockMembership(n, 20)),
		"all singletons":      slpa.FromMembership(singletons),
		"single root":         slpa.FromMembership(make([]int, n)),
		"empty communities":   withEmptyCommunities(slpa.FromMembership(randomMembership(6))),
		"empty around a root": withEmptyCommunities(slpa.FromMembership(make([]int, n))),
	}
	workloads := map[string][]*cascade.Cascade{
		"none":  nil,
		"short": randomCascades(n, 40, 4, rng),
		"long":  randomCascades(n, 60, n, rng),
	}
	for pname, p := range partitions {
		if err := p.Validate(n); err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		for wname, cs := range workloads {
			got, want := levelTasks(cs, p, n), buildTasksViaSplit(cs, p)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("partition %q, cascades %q: levelTasks differs from SplitCascades + localize", pname, wname)
			}
		}
	}
}

// A level's tasks come out of a fixed number of backing arrays: doubling
// the cascades must not add one allocation.
func TestLevelTasksAllocationsIndependentOfCascades(t *testing.T) {
	const n = 200
	p := slpa.FromMembership(blockMembership(n, 20))
	cs := randomCascades(n, 400, 60, xrand.New(52))
	allocs := func(cs []*cascade.Cascade) float64 {
		return testing.AllocsPerRun(10, func() { levelTasks(cs, p, n) })
	}
	half, full := allocs(cs[:200]), allocs(cs)
	if half != full {
		t.Errorf("levelTasks allocations grow with the cascades: %v for 200, %v for 400", half, full)
	}
	if limit := float64(p.NumCommunities()); full > limit {
		t.Errorf("levelTasks made %v allocations for %v communities", full, limit)
	}
}

func BenchmarkLevelTasks(b *testing.B) {
	cs, _ := trainingSet(b, 400, 600, 53)
	p := slpa.FromMembership(blockMembership(400, 20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		levelTasks(cs, p, 400)
	}
}
