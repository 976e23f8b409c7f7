package repl

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viralcast/internal/wal"
)

// fakeStore is a minimal stand-in for the serving layer's sharded
// store: it records applied events and absorbs duplicates by
// (cascade, node), exactly the SI duplicate guard the real store has.
type fakeStore struct {
	mu     sync.Mutex
	seen   map[[2]int]bool
	evs    []wal.Event
	dups   int
	resets int
}

func newFakeStore() *fakeStore {
	return &fakeStore{seen: make(map[[2]int]bool)}
}

func (s *fakeStore) apply(ev wal.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]int{ev.Cascade, ev.Node}
	if s.seen[key] {
		s.dups++
		return nil
	}
	s.seen[key] = true
	s.evs = append(s.evs, ev)
	return nil
}

func (s *fakeStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen = make(map[[2]int]bool)
	s.evs = nil
	s.resets++
}

func (s *fakeStore) snapshot() []wal.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]wal.Event(nil), s.evs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Cascade != out[b].Cascade {
			return out[a].Cascade < out[b].Cascade
		}
		return out[a].Time < out[b].Time
	})
	return out
}

func (s *fakeStore) dupCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dups
}

func (s *fakeStore) resetCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resets
}

// primaryHarness is a fake primary: a real WAL, a fake store, and the
// Primary handlers on an httptest server.
type primaryHarness struct {
	t     *testing.T
	log   *wal.Log
	store *fakeStore
	prim  *Primary
	srv   *httptest.Server
}

func newPrimaryHarness(t *testing.T, opt wal.Options, wrap func(http.HandlerFunc) http.HandlerFunc) *primaryHarness {
	t.Helper()
	opt.NoGroupCommit = true
	store := newFakeStore()
	log, err := wal.Open(t.TempDir(), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	prim := &Primary{
		Log:  log,
		Poll: 2 * time.Millisecond,
		Logf: t.Logf,
	}
	stream := http.HandlerFunc(prim.HandleStream)
	if wrap != nil {
		stream = wrap(prim.HandleStream)
	}
	mux := http.NewServeMux()
	mux.Handle("GET "+StreamPath, stream)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { log.Close() })
	return &primaryHarness{t: t, log: log, store: store, prim: prim, srv: srv}
}

// ingest applies and durably logs events, like the serve layer's
// ingestion path (store apply before WAL commit).
func (p *primaryHarness) ingest(evs ...wal.Event) {
	p.t.Helper()
	for _, ev := range evs {
		if err := p.store.apply(ev); err != nil {
			p.t.Fatal(err)
		}
	}
	if err := p.log.AppendBatch(evs); err != nil {
		p.t.Fatal(err)
	}
}

func newTestFollower(t *testing.T, url, dir string, store *fakeStore) *Follower {
	t.Helper()
	f, err := New(Config{
		Primary:    url,
		Dir:        dir,
		Apply:      store.apply,
		Reset:      store.reset,
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func waitStatus(t *testing.T, f *Follower, what string, pred func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := f.Status()
		if pred(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for follower to be %s; last status %+v", what, f.Status())
	return Status{}
}

func caughtUpWith(store *fakeStore, want int) func(Status) bool {
	return func(st Status) bool {
		return st.State == StateCurrent && st.LagRecords == 0 && len(store.snapshot()) == want
	}
}

func sameEvents(t *testing.T, a, b *fakeStore) {
	t.Helper()
	ae, be := a.snapshot(), b.snapshot()
	if len(ae) != len(be) {
		t.Fatalf("stores differ: %d events vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("stores differ at %d: %+v vs %+v", i, ae[i], be[i])
		}
	}
}

// mirrorByteIdentical asserts every mirrored segment is one the primary
// wrote — it still holds it, or compacted it away — and byte-for-byte
// identical wherever the primary still holds it. It returns how many
// segments the two share.
func mirrorByteIdentical(t *testing.T, primaryDir, followerDir string) int {
	t.Helper()
	psegs, err := wal.ListSegments(primaryDir)
	if err != nil {
		t.Fatal(err)
	}
	primBySeq := make(map[uint64]string)
	for _, si := range psegs {
		primBySeq[si.Seq] = si.Path
	}
	fsegs, err := wal.ListSegments(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, si := range fsegs {
		pp, ok := primBySeq[si.Seq]
		if !ok {
			if si.Seq >= psegs[0].Seq {
				t.Fatalf("mirror segment %d was never written by the primary (its segments run %d..%d)",
					si.Seq, psegs[0].Seq, psegs[len(psegs)-1].Seq)
			}
			continue // compacted away on the primary since it was mirrored
		}
		pb, err := os.ReadFile(pp)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.ReadFile(si.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, fb) {
			t.Fatalf("segment %d differs: primary %d bytes, mirror %d bytes", si.Seq, len(pb), len(fb))
		}
		shared++
	}
	if shared == 0 {
		t.Fatal("no shared segments between primary and mirror")
	}
	return shared
}

func evN(i int) wal.Event {
	return wal.Event{Cascade: i / 10, Node: i, Time: float64(i)}
}

func TestReplicateBootstrapAndTail(t *testing.T) {
	p := newPrimaryHarness(t, wal.Options{}, nil)
	for i := 0; i < 40; i++ {
		p.ingest(evN(i))
	}
	// A mirror directory that does not exist yet: bootstrap must create
	// it, exactly like a daemon started with a fresh -wal-dir.
	fdir := filepath.Join(t.TempDir(), "mirror")
	fstore := newFakeStore()
	f := newTestFollower(t, p.srv.URL, fdir, fstore)
	f.Start()
	defer f.Stop()

	waitStatus(t, f, "caught up after bootstrap", caughtUpWith(fstore, 40))
	for i := 40; i < 80; i++ {
		p.ingest(evN(i))
	}
	waitStatus(t, f, "caught up after live tail", caughtUpWith(fstore, 80))
	sameEvents(t, p.store, fstore)
	mirrorByteIdentical(t, p.log.Dir(), fdir)
}

func TestReplicateAcrossRotation(t *testing.T) {
	// Tiny segments force rotations mid-stream; the mirror must follow
	// them and stay byte-identical.
	p := newPrimaryHarness(t, wal.Options{MaxSegmentBytes: 256}, nil)
	fdir := t.TempDir()
	fstore := newFakeStore()
	f := newTestFollower(t, p.srv.URL, fdir, fstore)
	f.Start()
	defer f.Stop()
	waitStatus(t, f, "bootstrapped", caughtUpWith(fstore, 0))
	for i := 0; i < 120; i++ {
		p.ingest(evN(i))
	}
	waitStatus(t, f, "caught up across rotations", caughtUpWith(fstore, 120))
	sameEvents(t, p.store, fstore)
	if shared := mirrorByteIdentical(t, p.log.Dir(), fdir); shared < 2 {
		t.Fatalf("expected multiple mirrored segments, got %d", shared)
	}
}

// cutWriter wraps a stream response and kills it after a byte budget,
// simulating a connection dying mid-frame-item.
type cutWriter struct {
	http.ResponseWriter
	remaining int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, fmt.Errorf("injected connection cut")
	}
	if len(p) > c.remaining {
		p = p[:c.remaining]
		n, _ := c.ResponseWriter.Write(p)
		c.remaining = 0
		if fl, ok := c.ResponseWriter.(http.Flusher); ok {
			fl.Flush()
		}
		return n, fmt.Errorf("injected connection cut")
	}
	c.remaining -= len(p)
	return c.ResponseWriter.Write(p)
}

func (c *cutWriter) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func TestStreamCutMidFrame(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	wrap := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			conns++
			first := conns == 1
			mu.Unlock()
			if first {
				// Cut mid-way through the first frame item: past the
				// item header, inside the frame bytes.
				h(&cutWriter{ResponseWriter: w, remaining: itemHeaderLen + 4 + 3}, r)
				return
			}
			h(w, r)
		}
	}
	p := newPrimaryHarness(t, wal.Options{}, wrap)
	for i := 0; i < 10; i++ {
		p.ingest(evN(i))
	}
	// Bootstrap streams from the primary's oldest segment, so the cut
	// hits the first bootstrap frame.
	fdir := t.TempDir()
	fstore := newFakeStore()
	f := newTestFollower(t, p.srv.URL, fdir, fstore)
	f.Start()
	defer f.Stop()
	waitStatus(t, f, "bootstrapped", caughtUpWith(fstore, 10))
	for i := 10; i < 20; i++ {
		p.ingest(evN(i))
	}
	st := waitStatus(t, f, "recovered from mid-frame cut", caughtUpWith(fstore, 20))
	if st.Reconnects == 0 {
		t.Fatal("expected at least one reconnect after the injected cut")
	}
	sameEvents(t, p.store, fstore)
	mirrorByteIdentical(t, p.log.Dir(), fdir)
}

func TestFollowerTornTailAndOverlapDedup(t *testing.T) {
	p := newPrimaryHarness(t, wal.Options{}, nil)
	fdir := t.TempDir()
	fstore := newFakeStore()
	f := newTestFollower(t, p.srv.URL, fdir, fstore)
	f.Start()
	waitStatus(t, f, "bootstrapped", caughtUpWith(fstore, 0))
	for i := 0; i < 20; i++ {
		p.ingest(evN(i))
	}
	waitStatus(t, f, "caught up", caughtUpWith(fstore, 20))
	f.Stop()
	before := f.Status()

	// Crash simulation: smear a torn tail onto the follower's mirror —
	// as if it died mid-append — while the store state (rebuilt by
	// restart replay) still reflects every applied event.
	segs, err := wal.ListSegments(fdir)
	if err != nil {
		t.Fatal(err)
	}
	tail := segs[len(segs)-1].Path
	fh, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xba, 0xad}); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	// Restart: replay must truncate the torn tail and resume cleanly.
	fstore2 := newFakeStore()
	f2 := newTestFollower(t, p.srv.URL, fdir, fstore2)
	f2.Start()
	defer f2.Stop()
	st := waitStatus(t, f2, "recovered from torn tail", caughtUpWith(fstore2, 20))
	// Resumed from the mirror's intact end, not from a fresh snapshot.
	if st.Cursor != before.Cursor || st.Fingerprint != before.Fingerprint || fstore2.resetCount() != 0 {
		t.Fatalf("restart resumed at %v fp %08x after %d resets, want %v fp %08x after none",
			st.Cursor, st.Fingerprint, fstore2.resetCount(), before.Cursor, before.Fingerprint)
	}
	sameEvents(t, p.store, fstore2)
	mirrorByteIdentical(t, p.log.Dir(), fdir)

	// Reconnect-with-overlap duplicate absorption: truncate the last
	// intact frame off the mirror (the store keeps the event) and
	// restart. The primary re-streams that frame; the store's SI-dedup
	// must absorb the duplicate apply.
	f2.Stop()
	segs, err = wal.ListSegments(fdir)
	if err != nil {
		t.Fatal(err)
	}
	tail = segs[len(segs)-1].Path
	scan, err := wal.ScanSegment(tail, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := scan.GoodBytes
	lastLen := int64(len(wal.AppendFrame(nil, wal.EncodeEvent(evN(19)))))
	if err := os.Truncate(tail, good-lastLen); err != nil {
		t.Fatal(err)
	}
	fstore3 := newFakeStore()
	f3 := newTestFollower(t, p.srv.URL, fdir, fstore3)
	f3.Start()
	defer f3.Stop()
	waitStatus(t, f3, "caught back up after overlap", caughtUpWith(fstore3, 20))
	sameEvents(t, p.store, fstore3)
	mirrorByteIdentical(t, p.log.Dir(), fdir)
}

func TestDivergenceForcesResnapshot(t *testing.T) {
	p := newPrimaryHarness(t, wal.Options{}, nil)
	fdir := t.TempDir()
	fstore := newFakeStore()
	f := newTestFollower(t, p.srv.URL, fdir, fstore)
	f.Start()
	waitStatus(t, f, "bootstrapped", caughtUpWith(fstore, 0))
	for i := 0; i < 10; i++ {
		p.ingest(evN(i))
	}
	waitStatus(t, f, "caught up", caughtUpWith(fstore, 10))
	f.Stop()

	// Rewrite the mirror's last frame with a DIFFERENT but internally
	// valid frame — silent divergence a CRC check alone cannot see.
	// The chain fingerprint must catch it on reconnect.
	segs, err := wal.ListSegments(fdir)
	if err != nil {
		t.Fatal(err)
	}
	tail := segs[len(segs)-1].Path
	origFrame := wal.AppendFrame(nil, wal.EncodeEvent(evN(9)))
	forged := wal.AppendFrame(nil, wal.EncodeEvent(wal.Event{Cascade: 0, Node: 100, Time: 9}))
	if len(forged) != len(origFrame) {
		t.Fatalf("test forgery must preserve length: %d vs %d", len(forged), len(origFrame))
	}
	info, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := os.OpenFile(tail, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt(forged, info.Size()-int64(len(forged))); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	fstore2 := newFakeStore()
	f2 := newTestFollower(t, p.srv.URL, fdir, fstore2)
	f2.Start()
	defer f2.Stop()
	st := waitStatus(t, f2, "recovered from divergence", caughtUpWith(fstore2, 10))
	if fstore2.resetCount() == 0 {
		t.Fatal("divergence should have forced a store reset + re-snapshot")
	}
	if st.Reconnects == 0 {
		t.Fatal("divergence should have counted a reconnect")
	}
	sameEvents(t, p.store, fstore2)
	mirrorByteIdentical(t, p.log.Dir(), fdir)
}

func TestCompactionPastCursorForcesResnapshot(t *testing.T) {
	p := newPrimaryHarness(t, wal.Options{}, nil)
	fdir := t.TempDir()
	fstore := newFakeStore()
	f := newTestFollower(t, p.srv.URL, fdir, fstore)
	f.Start()
	for i := 0; i < 10; i++ {
		p.ingest(evN(i))
	}
	waitStatus(t, f, "caught up", caughtUpWith(fstore, 10))
	f.Stop()

	// While the follower is down, the primary ingests more and compacts
	// its whole history away; the follower's cursor now names a deleted
	// segment and must answer 410 → re-bootstrap.
	for i := 10; i < 15; i++ {
		p.ingest(evN(i))
	}
	if _, err := p.log.Compact(p.store.snapshot); err != nil {
		t.Fatal(err)
	}

	fstore2 := newFakeStore()
	f2 := newTestFollower(t, p.srv.URL, fdir, fstore2)
	f2.Start()
	defer f2.Stop()
	waitStatus(t, f2, "re-snapshotted past compaction", caughtUpWith(fstore2, 15))
	sameEvents(t, p.store, fstore2)
}

func TestPromotedMirrorOpensAsWAL(t *testing.T) {
	// The whole point of the byte mirror: after Stop, the directory is
	// an ordinary WAL — wal.Open replays the mirrored segments into
	// exactly the primary's event set.
	p := newPrimaryHarness(t, wal.Options{}, nil)
	for i := 0; i < 15; i++ {
		p.ingest(evN(i))
	}
	fdir := t.TempDir()
	fstore := newFakeStore()
	f := newTestFollower(t, p.srv.URL, fdir, fstore)
	f.Start()
	waitStatus(t, f, "bootstrapped", caughtUpWith(fstore, 15))
	for i := 15; i < 30; i++ {
		p.ingest(evN(i))
	}
	waitStatus(t, f, "caught up", caughtUpWith(fstore, 30))
	f.Stop()

	replayed := newFakeStore()
	l, err := wal.Open(fdir, wal.Options{NoGroupCommit: true}, replayed.apply)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sameEvents(t, p.store, replayed)
	// And the promoted log accepts fresh writes.
	if err := l.Append(wal.Event{Cascade: 99, Node: 990, Time: 1}); err != nil {
		t.Fatal(err)
	}
	_ = filepath.Join // keep import balanced if helpers change
}

// TestBootstrapAfterRotationAndCompaction bootstraps a follower from a
// primary that has rotated through many small segments, compacted them
// away and rotated again: the mirror starts at the primary's oldest
// surviving segment (the compaction snapshot) and holds exactly the
// primary's segments from there, and the store equals the primary's.
func TestBootstrapAfterRotationAndCompaction(t *testing.T) {
	p := newPrimaryHarness(t, wal.Options{MaxSegmentBytes: 256}, nil)
	for i := 0; i < 60; i++ {
		p.ingest(evN(i))
	}
	if _, err := p.log.Compact(p.store.snapshot); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 100; i++ {
		p.ingest(evN(i))
	}
	psegs, err := wal.ListSegments(p.log.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if psegs[0].Seq == 1 || len(psegs) < 3 {
		t.Fatalf("primary segments %v: want compaction past segment 1 and rotations after it", psegs)
	}

	fdir := t.TempDir()
	fstore := newFakeStore()
	f := newTestFollower(t, p.srv.URL, fdir, fstore)
	f.Start()
	defer f.Stop()
	waitStatus(t, f, "bootstrapped", caughtUpWith(fstore, 100))
	sameEvents(t, p.store, fstore)
	fsegs, err := wal.ListSegments(fdir)
	if err != nil {
		t.Fatal(err)
	}
	if fsegs[0].Seq != psegs[0].Seq {
		t.Fatalf("first mirror segment is %d, want the primary's oldest surviving %d", fsegs[0].Seq, psegs[0].Seq)
	}
	if shared := mirrorByteIdentical(t, p.log.Dir(), fdir); shared != len(psegs) || len(fsegs) != len(psegs) {
		t.Fatalf("mirror holds %d segments, %d shared, want the primary's %d", len(fsegs), shared, len(psegs))
	}
}

// TestBootstrapUnservableUntilApplied blocks the follower's Apply
// partway through the records the primary held when the bootstrap
// stream opened: the follower is not servable while it holds only some
// of them, and is servable once it has applied all of them.
func TestBootstrapUnservableUntilApplied(t *testing.T) {
	p := newPrimaryHarness(t, wal.Options{}, nil)
	for i := 0; i < 30; i++ {
		p.ingest(evN(i))
	}
	fstore := newFakeStore()
	blocked, release := make(chan struct{}), make(chan struct{})
	var applied int
	f, err := New(Config{
		Primary: p.srv.URL,
		Dir:     t.TempDir(),
		Apply: func(ev wal.Event) error {
			if applied++; applied == 10 {
				close(blocked)
				<-release
			}
			return fstore.apply(ev)
		},
		Reset:      fstore.reset,
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	<-blocked
	st := f.Status()
	if st.Servable || st.State != StateBootstrapping {
		t.Fatalf("9 of 30 bootstrap records applied: status %+v, want unservable and %q", st, StateBootstrapping)
	}
	// The bootstrap streams the primary's own segment into the mirror.
	if st.Cursor.Seg != 1 {
		t.Fatalf("bootstrapping mirror cursor %v, want in the primary's segment 1", st.Cursor)
	}
	time.Sleep(20 * time.Millisecond)
	if st := f.Status(); st.Servable {
		t.Fatalf("servable while Apply is blocked: %+v", st)
	}
	close(release)
	waitStatus(t, f, "servable after the bootstrap records", func(st Status) bool { return st.Servable })
	if got := len(fstore.snapshot()); got != 30 {
		t.Fatalf("servable with %d of 30 records applied", got)
	}
	waitStatus(t, f, "caught up", caughtUpWith(fstore, 30))
	sameEvents(t, p.store, fstore)
}

// TestPartialBootstrapRestartsUnservable stops a follower partway
// through its bootstrap and restarts it on the same mirror: against an
// unreachable primary it replays the partial mirror but stays
// unservable, against the primary it completes the bootstrap and serves,
// and a restart after that serves its mirror at once, primary or not.
func TestPartialBootstrapRestartsUnservable(t *testing.T) {
	p := newPrimaryHarness(t, wal.Options{}, nil)
	for i := 0; i < 30; i++ {
		p.ingest(evN(i))
	}
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close() // its address now refuses connections
	fdir := t.TempDir()

	blocked, release := make(chan struct{}), make(chan struct{})
	var applied int
	var stopping atomic.Bool
	f, err := New(Config{
		Primary: p.srv.URL,
		Dir:     fdir,
		Apply: func(ev wal.Event) error {
			if stopping.Load() {
				return errors.New("stopping")
			}
			if applied++; applied == 10 {
				close(blocked)
				<-release
			}
			return nil
		},
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	<-blocked
	stopping.Store(true)
	close(release)
	f.Stop()

	restart := func(url string) (*Follower, *fakeStore) {
		t.Helper()
		store := newFakeStore()
		f := newTestFollower(t, url, fdir, store)
		f.Start()
		t.Cleanup(f.Stop)
		return f, store
	}
	f, store := restart(down.URL)
	st := waitStatus(t, f, "replayed and refused by the primary", func(st Status) bool {
		return st.Cursor.Seg != 0 && st.Reconnects > 0
	})
	if st.Servable || st.State != StateBootstrapping {
		t.Fatalf("partial bootstrap restarted against a dead primary: status %+v, want unservable and %q", st, StateBootstrapping)
	}
	if got := len(store.snapshot()); got < 10 || got >= 30 {
		t.Fatalf("replayed %d records from the partial mirror, want at least 10 and fewer than 30", got)
	}
	f.Stop()

	f, store = restart(p.srv.URL)
	waitStatus(t, f, "bootstrap completed", caughtUpWith(store, 30))
	sameEvents(t, p.store, store)
	mirrorByteIdentical(t, p.log.Dir(), fdir)
	f.Stop()

	f, store = restart(down.URL)
	st = waitStatus(t, f, "replayed", func(st Status) bool { return st.Cursor.Seg != 0 })
	if !st.Servable {
		t.Fatalf("completed bootstrap restarted unservable: %+v", st)
	}
	sameEvents(t, p.store, store)
}
