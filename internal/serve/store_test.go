package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/xrand"
)

func TestStoreAppendAndSnapshot(t *testing.T) {
	s := NewStore()
	for i, ev := range []Event{
		{Cascade: 1, Node: 3, Time: 0.3},
		{Cascade: 1, Node: 1, Time: 0.1}, // arrives late: must sort in
		{Cascade: 1, Node: 2, Time: 0.2},
	} {
		if _, err := s.Append(ev, 10); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	c, ok := s.Snapshot(1)
	if !ok {
		t.Fatal("cascade 1 missing")
	}
	if got := c.Nodes(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("infections not time-sorted: %v", got)
	}
	if err := cascade.ValidateAll([]*cascade.Cascade{c}, 10); err != nil {
		t.Fatalf("snapshot is not a valid cascade: %v", err)
	}
	// The snapshot is isolated from later appends.
	if _, err := s.Append(Event{Cascade: 1, Node: 4, Time: 0.4}, 10); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Fatalf("snapshot mutated by later append: size %d", c.Size())
	}
	if _, ok := s.Snapshot(2); ok {
		t.Fatal("snapshot of unknown cascade succeeded")
	}
}

func TestStoreAppendRejections(t *testing.T) {
	s := NewStore()
	if _, err := s.Append(Event{Cascade: 1, Node: 2, Time: 0.5}, 10); err != nil {
		t.Fatal(err)
	}
	pastInt32 := int64(math.MaxInt32) + 1 // a variable: the conversion below must compile on 32-bit too
	cases := []struct {
		name string
		ev   Event
		n    int // universe; 0 means 10
	}{
		{"negative cascade", Event{Cascade: -1, Node: 0, Time: 0}, 0},
		{"negative node", Event{Cascade: 1, Node: -1, Time: 0}, 0},
		{"node beyond universe", Event{Cascade: 1, Node: 10, Time: 0}, 0},
		{"node past int32 in a universe that allows it", Event{Cascade: 1, Node: int(pastInt32), Time: 0.6}, math.MaxInt},
		{"node past int32 opening a cascade", Event{Cascade: 7, Node: int(pastInt32), Time: 0.6}, math.MaxInt},
		{"duplicate node", Event{Cascade: 1, Node: 2, Time: 0.9}, 0},
		{"duplicate node, earlier timestamp", Event{Cascade: 1, Node: 2, Time: 0.1}, 0},
		{"negative time", Event{Cascade: 1, Node: 3, Time: -0.1}, 0},
		{"NaN time", Event{Cascade: 1, Node: 3, Time: math.NaN()}, 0},
		{"Inf time", Event{Cascade: 1, Node: 3, Time: math.Inf(1)}, 0},
	}
	for _, tc := range cases {
		if tc.n == 0 {
			tc.n = 10
		}
		if _, err := s.Append(tc.ev, tc.n); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if c, _ := s.Snapshot(1); c.Size() != 1 {
		t.Fatalf("rejected events leaked into the cascade: size %d", c.Size())
	}
	if s.Len() != 1 {
		t.Fatalf("a refused event opened a cascade: %d live, want 1", s.Len())
	}
	_, err := s.Append(Event{Cascade: 1, Node: int(pastInt32), Time: 0.6}, math.MaxInt)
	if want := "node 2147483648 above the store's node id limit 2147483647"; err == nil || err.Error() != want {
		t.Fatalf("node past int32: %v, want %q", err, want)
	}
	// MaxInt32 itself is the last id the guard can hold.
	if size, err := s.Append(Event{Cascade: 1, Node: math.MaxInt32, Time: 0.6}, math.MaxInt); err != nil || size != 2 {
		t.Fatalf("node MaxInt32 = (%d, %v), want accepted at size 2", size, err)
	}
}

// TestStoreDuplicateGuard holds the sorted-index guard to the map it
// replaced: over a shuffled feed with re-reports mixed in — later and
// earlier timestamps alike — every event is accepted or refused exactly
// as a set of seen nodes says, a refusal carries the message and the
// unchanged size it always did, and the infections stay time-sorted.
func TestStoreDuplicateGuard(t *testing.T) {
	const n = 300
	s := NewStore()
	rng := rand.New(rand.NewSource(7))
	seen := map[int]bool{}
	for i := 0; i < 4*n; i++ {
		ev := Event{Cascade: 5, Node: rng.Intn(n), Time: float64(rng.Intn(50))}
		size, err := s.Append(ev, n)
		if seen[ev.Node] {
			want := fmt.Sprintf("node %d already infected in cascade 5 (SI process forbids re-infection)", ev.Node)
			if err == nil || err.Error() != want || size != len(seen) {
				t.Fatalf("event %d re-reports node %d at t=%v: (%d, %v), want size %d and %q", i, ev.Node, ev.Time, size, err, len(seen), want)
			}
			continue
		}
		seen[ev.Node] = true
		if err != nil || size != len(seen) {
			t.Fatalf("event %d, fresh node %d: (%d, %v), want size %d", i, ev.Node, size, err, len(seen))
		}
	}
	c, _ := s.Snapshot(5)
	if err := cascade.ValidateAll([]*cascade.Cascade{c}, n); err != nil || c.Size() != len(seen) {
		t.Fatalf("cascade after the feed: size %d of %d, %v", c.Size(), len(seen), err)
	}
}

// TestStoreGuardBytesPerInfection bounds what the store keeps resident
// per ingested infection: 16 bytes of infection, 4 of guard, the rest
// slice slack and cascade headers (the map guard it replaced measured
// 57 here).
func TestStoreGuardBytesPerInfection(t *testing.T) {
	const cascades, size, universe = 4096, 32, 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore()
	for j := 0; j < size; j++ {
		for id := 0; id < cascades; id++ {
			// 61 is coprime to the universe: no node repeats in a cascade.
			if _, err := s.Append(Event{Cascade: id, Node: (id*7 + j*61) % universe, Time: float64(j)}, universe); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perInfection := float64(after.HeapAlloc-before.HeapAlloc) / (cascades * size)
	runtime.KeepAlive(s)
	t.Logf("%.1f live bytes per infection", perInfection)
	if perInfection > 28 {
		t.Fatalf("the store keeps %.1f bytes per infection resident, budget 28", perInfection)
	}
}

// TestStoreFlushDirty: what a flush reads to find new work. The change
// count moves on every accepted Append and on nothing else a reader or a
// rejected event does; Cascades hands a refit every usable live cascade,
// in id order, with its full history.
func TestStoreFlushDirty(t *testing.T) {
	s := NewStore()
	add := func(id, node int, tm float64) {
		t.Helper()
		if _, err := s.Append(Event{Cascade: id, Node: node, Time: tm}, 100); err != nil {
			t.Fatal(err)
		}
	}
	if s.Changes() != 0 {
		t.Fatalf("a new store counts %d changes", s.Changes())
	}
	add(3, 0, 0.1)
	add(3, 99, 0.3) // inside a 100-node universe, outside a 50-node one
	add(1, 0, 0.1)
	add(1, 1, 0.2)
	add(2, 0, 0.1) // singleton: no likelihood signal
	if s.Changes() != 5 {
		t.Fatalf("Changes %d after 5 appends", s.Changes())
	}
	got := s.Cascades(100)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 || got[1].Size() != 2 {
		t.Fatalf("Cascades(100) = %v, want ids [1 3]", ids(got))
	}
	if got := s.Cascades(50); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Cascades(50) = %v, want id [1]", ids(got))
	}
	// A rejected event and a read change nothing.
	if _, err := s.Append(Event{Cascade: 1, Node: 1, Time: 0.5}, 100); err == nil {
		t.Fatal("duplicate infection accepted")
	}
	if s.Changes() != 5 {
		t.Fatalf("Changes %d after a rejected append and reads, want 5", s.Changes())
	}
	// The cascade that grew comes back with its full history.
	add(1, 2, 0.5)
	if s.Changes() != 6 {
		t.Fatalf("Changes %d after growth, want 6", s.Changes())
	}
	if got := s.Cascades(100); len(got) != 2 || got[0].ID != 1 || got[0].Size() != 3 {
		t.Fatalf("Cascades(100) after growth = %v, want full cascade 1 of size 3", ids(got))
	}
}

// TestStoreEvictAndLen: Len counts cascades across every shard, and
// Clear, the store's one eviction, empties them all and moves the change
// count so the next flush sees the wipe.
func TestStoreEvictAndLen(t *testing.T) {
	s := NewStore()
	for id := 0; id < 200; id++ { // spread across every shard
		if _, err := s.Append(Event{Cascade: id, Node: 0, Time: 0}, 5); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 200 || s.Changes() != 200 {
		t.Fatalf("Len %d, Changes %d after 200 appends to 200 cascades", s.Len(), s.Changes())
	}
	s.Clear()
	if s.Len() != 0 || s.Changes() <= 200 {
		t.Fatalf("after Clear: Len %d, Changes %d", s.Len(), s.Changes())
	}
	if _, ok := s.Snapshot(7); ok {
		t.Fatal("a cleared cascade is still readable")
	}
}

// TestStoreConcurrentAppend hammers the store from parallel writers and
// readers; run under -race this proves the shard locking sound.
func TestStoreConcurrentAppend(t *testing.T) {
	s := NewStore()
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Distinct (cascade, node) per event; many writers share
				// cascades so shard locks genuinely contend.
				ev := Event{Cascade: i % 16, Node: w*perWriter + i, Time: float64(i)}
				if _, err := s.Append(ev, writers*perWriter); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if i%10 == 0 {
					s.Snapshot(ev.Cascade)
					s.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for id := 0; id < 16; id++ {
		c, ok := s.Snapshot(id)
		if !ok {
			t.Fatalf("cascade %d missing", id)
		}
		if err := cascade.ValidateAll([]*cascade.Cascade{c}, writers*perWriter); err != nil {
			t.Fatalf("cascade %d invalid after concurrent ingest: %v", id, err)
		}
		total += c.Size()
	}
	if total != writers*perWriter {
		t.Fatalf("ingested %d infections, want %d", total, writers*perWriter)
	}
}

func ids(cs []*cascade.Cascade) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

// TestAllEventsReplayKeepsTieOrder: a feed stamped on a coarse clock
// reports many nodes at one timestamp, and Append keeps such ties in
// arrival order. The compaction snapshot must replay into
// exactly that order, or a restarted daemon and a follower serve the
// cascade's nodes — and sum its features — in a different order than
// the primary.
func TestAllEventsReplayKeepsTieOrder(t *testing.T) {
	const cascades, size, times, n = 300, 50, 5, 1000
	src := NewStore()
	rng := xrand.New(9)
	for id := 0; id < cascades; id++ {
		for i, node := range rng.Perm(n)[:size] {
			ev := Event{Cascade: id, Node: node, Time: float64(i * times / size)}
			if _, err := src.Append(ev, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	evs := src.AllEvents()
	if len(evs) != cascades*size {
		t.Fatalf("AllEvents returned %d events, want %d", len(evs), cascades*size)
	}
	dst := NewStore()
	for i, ev := range evs {
		if i > 0 && ev.Cascade < evs[i-1].Cascade {
			t.Fatalf("event %d: cascade %d after cascade %d", i, ev.Cascade, evs[i-1].Cascade)
		}
		if _, err := dst.Append(ev, n); err != nil {
			t.Fatal(err)
		}
	}
	differ := 0
	for id := 0; id < cascades; id++ {
		a, _ := src.Snapshot(id)
		b, ok := dst.Snapshot(id)
		if !ok || !reflect.DeepEqual(a, b) {
			differ++
		}
	}
	if differ != 0 {
		t.Fatalf("%d of %d replayed cascades differ from the source", differ, cascades)
	}
}
