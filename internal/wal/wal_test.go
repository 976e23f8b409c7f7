package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// collect re-opens dir read-only style (replay only, then Close) and
// returns every replayed event in order.
func collect(t *testing.T, dir string) []Event {
	t.Helper()
	var got []Event
	l, err := Open(dir, Options{}, func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return got
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Event, 0, 50)
	for i := 0; i < 50; i++ {
		ev := Event{Cascade: i % 5, Node: i, Time: float64(i) / 10}
		if err := l.Append(ev); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, ev)
	}
	st := l.Stats()
	if st.Appends != 50 || st.Fsyncs == 0 || st.Bytes == 0 {
		t.Fatalf("stats did not move: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: got %v, want ErrClosed", err)
	}

	got := collect(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ev := Event{Cascade: w, Node: i, Time: float64(i)}
				if err := l.Append(ev); err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != workers*perWorker {
		t.Fatalf("acked %d appends, want %d", st.Appends, workers*perWorker)
	}
	// The whole point of group commit: far fewer fsyncs than appends.
	if st.Fsyncs >= st.Appends {
		t.Fatalf("no batching happened: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir); len(got) != workers*perWorker {
		t.Fatalf("replayed %d events, want %d", len(got), workers*perWorker)
	}
}

func TestRotationAndSegmentNaming(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxSegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := l.Append(Event{Cascade: 1, Node: i, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Seq != segs[i-1].Seq+1 {
			t.Fatalf("segment sequence gap: %d then %d", segs[i-1].Seq, segs[i].Seq)
		}
	}
	// A stray non-segment file must not confuse listing or recovery.
	if err := os.WriteFile(filepath.Join(dir, "NOTES.txt"), []byte("ops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir); len(got) != n {
		t.Fatalf("replayed %d events across segments, want %d", len(got), n)
	}
}

func TestTornTailTruncatedNotFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(Event{Cascade: 2, Node: i, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	// Simulate a crash mid-write: garbage bytes after the last frame.
	f, err := os.OpenFile(last.Path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var got []Event
	l2, err := Open(dir, Options{}, func(ev Event) error { got = append(got, ev); return nil })
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("recovered %d events, want 10", len(got))
	}
	if st := l2.Stats(); st.TornTruncations != 1 {
		t.Fatalf("TornTruncations = %d, want 1", st.TornTruncations)
	}
	// The truncation is physical: the file now ends at the last intact
	// frame and verifies clean.
	scan, err := ScanSegment(last.Path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn || scan.GoodBytes != scan.Size {
		t.Fatalf("segment still torn after recovery: %+v", scan)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRewritesSnapshotAndDeletesSealed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxSegmentBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := l.Append(Event{Cascade: i % 3, Node: i, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := ListSegments(dir)
	if len(before) < 2 {
		t.Fatalf("want several segments before compaction, got %d", len(before))
	}
	// The store "kept" only cascade 0's events: compaction snapshots
	// the still-live state and drops everything else.
	snapshot := func() []Event {
		var out []Event
		for i := 0; i < 60; i += 3 {
			out = append(out, Event{Cascade: 0, Node: i, Time: float64(i)})
		}
		return out
	}
	removed, err := l.Compact(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(before) {
		t.Fatalf("compaction removed %d segments, want %d", removed, len(before))
	}
	if st := l.Stats(); st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	// Appends continue after compaction into the surviving segment.
	if err := l.Append(Event{Cascade: 0, Node: 999, Time: 99}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	if len(got) != 21 {
		t.Fatalf("replay after compaction got %d events, want 20 snapshot + 1 appended", len(got))
	}
	for _, ev := range got {
		if ev.Cascade != 0 {
			t.Fatalf("compacted log replayed dropped cascade %d", ev.Cascade)
		}
	}
}

func TestPerAppendSyncModeDurabilityEquivalent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoGroupCommit: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(Event{Cascade: 4, Node: i, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Fsyncs < 20 {
		t.Fatalf("per-append mode must fsync every append: %d fsyncs for 20 appends", st.Fsyncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir); len(got) != 20 {
		t.Fatalf("replayed %d events, want 20", len(got))
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	// A file with a segment's name but someone else's content must be a
	// hard error — truncating it could destroy foreign data.
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte("node,kind,topic0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}, nil); err == nil {
		t.Fatal("Open accepted a foreign file as a segment")
	}
}

func TestReplayCallbackErrorAbortsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{Cascade: 1, Node: 1, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("store rejected replay")
	if _, err := Open(dir, Options{}, func(Event) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the replay callback's error", err)
	}
}
