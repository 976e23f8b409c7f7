package repl

import (
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"viralcast/internal/wal"
	"viralcast/internal/wal/waltest"
)

// TestMirrorFsyncsOnlyUnsyncedBytes pins what the follower's mirror
// costs in fsyncs, through its file seam: nothing per heartbeat while
// caught up, one at the first lag-0 heartbeat after new frames, one at
// a seal after unsynced catch-up frames, none at a Stop, and one at the
// first heartbeat after a restart reopens the mirror (its sync covers
// the reopen's truncation).
func TestMirrorFsyncsOnlyUnsyncedBytes(t *testing.T) {
	// gate, while set, holds every new stream connection until closed,
	// so a reconnecting follower catches up on frames written meanwhile.
	var gate atomic.Pointer[chan struct{}]
	hold := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if g := gate.Load(); g != nil {
				<-*g
			}
			h(w, r)
		}
	}
	// Segment 1 holds exactly ten frames, so the commit of frames 10-11
	// rotates to segment 2.
	frameLen := int64(len(wal.AppendFrame(nil, wal.EncodeEvent(evN(0)))))
	p := newPrimaryHarness(t, wal.Options{MaxSegmentBytes: wal.SegmentHeaderLen + 10*frameLen}, hold)
	for i := 0; i < 5; i++ {
		p.ingest(evN(i))
	}
	var disk waltest.Disk
	fdir := t.TempDir()
	fstore := newFakeStore()
	f := newTestFollower(t, p.srv.URL, fdir, fstore)
	f.wrapFile = disk.Wrap
	f.Start()
	defer f.Stop()
	syncs := func(what string, want int) {
		t.Helper()
		if got := disk.Syncs(); got != want {
			t.Fatalf("%s: %d mirror fsyncs in all, want %d", what, got, want)
		}
	}

	waitStatus(t, f, "bootstrapped", caughtUpWith(fstore, 5))
	waitHeartbeats(t, f, 5)
	// Segment 1's magic line, and the sync of its bootstrap frames
	// before the bootstrap marker; the heartbeats found nothing to sync.
	syncs("bootstrapped and idle", 2)

	p.ingest(evN(5), evN(6), evN(7))
	waitStatus(t, f, "caught up on new frames", caughtUpWith(fstore, 8))
	waitHeartbeats(t, f, 5)
	syncs("new frames, then idle", 3)

	// Cut the stream and hold the reconnect while the primary commits
	// to its segment, rotates to the next and commits there: the
	// follower catches up on frames with lag > 0, so no heartbeat syncs
	// them before the seal.
	held := make(chan struct{})
	gate.Store(&held)
	p.srv.CloseClientConnections()
	p.ingest(evN(8), evN(9))
	p.ingest(evN(10), evN(11))
	if end, _ := p.log.End(); end.Seg != 2 {
		t.Fatalf("frames 10-11 committed at %v, want in segment 2", end)
	}
	gate.Store(nil)
	close(held)
	waitStatus(t, f, "caught up across the cut", caughtUpWith(fstore, 12))
	waitHeartbeats(t, f, 5)
	// The seal of frames 8-9, the next segment's magic line, the first
	// lag-0 heartbeat after frames 10-11.
	syncs("catch-up across a seal, then idle", 6)

	f.Stop()
	syncs("stopped", 6)

	f2 := newTestFollower(t, p.srv.URL, fdir, newFakeStore())
	f2.wrapFile = disk.Wrap
	f2.Start()
	defer f2.Stop()
	waitStatus(t, f2, "resumed from the mirror", func(st Status) bool { return st.State == StateCurrent })
	waitHeartbeats(t, f2, 5)
	syncs("reopened, then idle", 7)
	sameEvents(t, p.store, fstore)
	mirrorByteIdentical(t, p.log.Dir(), fdir)
}

// waitHeartbeats waits until the follower has taken at least n more
// stream items; on an idle stream each is a heartbeat, and each stamps
// lastAdvance.
func waitHeartbeats(t *testing.T, f *Follower, n int) {
	t.Helper()
	stamp := func() time.Time {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.lastAdvance
	}
	last := stamp()
	deadline := time.Now().Add(10 * time.Second)
	for n > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d more heartbeats", n)
		}
		time.Sleep(time.Millisecond)
		if at := stamp(); !at.Equal(last) {
			last = at
			n--
		}
	}
}
