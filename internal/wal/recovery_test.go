package wal

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"viralcast/internal/wal/waltest"
)

// TestFsyncFailurePoisonsLog: after a failed fsync nothing further may
// be acknowledged — a later append could land beyond an unsynced region
// and be silently unrecoverable, so the log must fail stop.
func TestFsyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	var disk waltest.Disk
	l, err := Open(dir, Options{WrapFile: disk.Wrap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(Event{Cascade: 1, Node: i, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	boom := fmt.Errorf("disk on fire")
	disk.FailSync(1, boom)
	err = l.Append(Event{Cascade: 1, Node: 99, Time: 99})
	if !errors.Is(err, boom) {
		t.Fatalf("append during fsync failure: got %v, want the injected error", err)
	}
	// Poisoned: even with the disk "healthy" again, appends must fail.
	if err := l.Append(Event{Cascade: 1, Node: 100, Time: 100}); err == nil ||
		!strings.Contains(err.Error(), "disabled") {
		t.Fatalf("append after failure: got %v, want log-disabled error", err)
	}
	if _, err := l.Compact(func() []Event { return nil }); err == nil {
		t.Fatal("compaction succeeded on a poisoned log")
	}
	l.Close()

	// Only the five acknowledged events may recover; the unacked sixth
	// may or may not be on disk but was applied before the failed sync,
	// so recovery keeping it out depends on the tail truncation — here
	// the frame is intact but unsynced, which a real crash may or may
	// not persist. What recovery must guarantee is the acked prefix.
	got := collect(t, dir)
	if len(got) < 5 {
		t.Fatalf("recovered %d events, want at least the 5 acknowledged", len(got))
	}
	for i := 0; i < 5; i++ {
		if got[i] != (Event{Cascade: 1, Node: i, Time: float64(i)}) {
			t.Fatalf("acked event %d not recovered intact: %+v", i, got[i])
		}
	}
}

// TestInjectedTornWrite: a crash between write and fsync leaves a
// partial frame; the commit must not ack, and recovery must truncate
// the torn tail and keep every previously acknowledged record.
func TestInjectedTornWrite(t *testing.T) {
	dir := t.TempDir()
	var disk waltest.Disk
	l, err := Open(dir, Options{WrapFile: disk.Wrap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := l.Append(Event{Cascade: 3, Node: i, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	disk.TearWrite(1, 7)
	err = l.Append(Event{Cascade: 3, Node: 999, Time: 999})
	if err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn commit acked: err=%v", err)
	}
	l.Close()

	var got []Event
	l2, err := Open(dir, Options{}, func(ev Event) error { got = append(got, ev); return nil })
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l2.Close()
	if len(got) != 8 {
		t.Fatalf("recovered %d events, want the 8 acknowledged", len(got))
	}
	if st := l2.Stats(); st.TornTruncations != 1 {
		t.Fatalf("TornTruncations = %d, want 1", st.TornTruncations)
	}
}

// TestRotateFaultSurfacesError: a failed rotation (e.g. ENOSPC on the
// new segment's magic line) must tear nothing, surface to the
// appender, and poison the log like every other disk error, so Err
// reports it instead of every later append failing behind a healthy
// probe. It must leave no half-made segment behind (the reopen that
// recovers the log creates the same sequence number), and a reopen
// recovers every acknowledged event.
func TestRotateFaultSurfacesError(t *testing.T) {
	dir := t.TempDir()
	var disk waltest.Disk
	l, err := Open(dir, Options{MaxSegmentBytes: 128, WrapFile: disk.Wrap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := fmt.Errorf("no space for a new segment")
	disk.FailCreate(boom)
	var acked []Event
	var rotateErr error
	for i := 0; i < 50; i++ {
		ev := Event{Cascade: 1, Node: i, Time: float64(i)}
		if err := l.Append(ev); err != nil {
			rotateErr = err
			break
		}
		acked = append(acked, ev)
	}
	if !errors.Is(rotateErr, boom) {
		t.Fatalf("rotation fault never surfaced: %v", rotateErr)
	}
	if err := l.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() after a failed rotation = %v, want the create error", err)
	}
	if err := l.Append(Event{Cascade: 1, Node: 100, Time: 100}); err == nil ||
		!strings.Contains(err.Error(), "disabled") {
		t.Fatalf("append after a failed rotation: got %v, want log-disabled error", err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Seq != 1 {
		t.Fatalf("segments after the failed rotation: %+v, want seq 1 alone", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	if len(got) != len(acked) {
		t.Fatalf("recovered %d events, want the %d acknowledged", len(got), len(acked))
	}
	for i := range acked {
		if got[i] != acked[i] {
			t.Fatalf("event %d recovered as %+v, want %+v", i, got[i], acked[i])
		}
	}
}

// TestErrReportsPoisonWithoutBlocking: Err must be nil on a healthy
// log, return the poisoning error after a disk failure, and stay
// responsive even while a commit is stalled holding the write lock.
func TestErrReportsPoisonWithoutBlocking(t *testing.T) {
	dir := t.TempDir()
	var disk waltest.Disk
	l, err := Open(dir, Options{WrapFile: disk.Wrap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Err(); err != nil {
		t.Fatalf("healthy log Err() = %v", err)
	}

	// Stall one commit's fsync and probe Err while it is stuck: it must
	// answer while the committer holds mu.
	entered, release := disk.StallSync(1)
	defer release()
	stalled := make(chan error, 1)
	go func() { stalled <- l.Append(Event{Cascade: 1, Node: 0, Time: 0}) }()
	<-entered
	probeStart := time.Now()
	if err := l.Err(); err != nil {
		t.Fatalf("Err() during stall = %v", err)
	}
	if d := time.Since(probeStart); d > 100*time.Millisecond {
		t.Fatalf("Err() blocked for %v behind a stalled commit", d)
	}
	release()
	if err := <-stalled; err != nil {
		t.Fatalf("stalled append eventually failed: %v", err)
	}

	// Poison the log; Err must report the cause.
	boom := fmt.Errorf("disk gone")
	disk.FailSync(1, boom)
	if err := l.Append(Event{Cascade: 1, Node: 1, Time: 1}); !errors.Is(err, boom) {
		t.Fatalf("append = %v, want injected error", err)
	}
	if err := l.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() after poison = %v, want the poisoning cause", err)
	}
}

// TestAppendBatchCtxDeadlineDuringStall: an append whose commit is
// stuck behind a stalled disk must stop waiting at its context
// deadline instead of hanging for the stall's duration.
func TestAppendBatchCtxDeadlineDuringStall(t *testing.T) {
	dir := t.TempDir()
	var disk waltest.Disk
	l, err := Open(dir, Options{WrapFile: disk.Wrap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, release := disk.StallSync(1)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = l.AppendBatchCtx(ctx, []Event{{Cascade: 9, Node: 0, Time: 0}})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AppendBatchCtx = %v, want DeadlineExceeded", err)
	}
	if elapsed > 400*time.Millisecond {
		t.Fatalf("AppendBatchCtx returned after %v, deadline was 80ms", elapsed)
	}
	// The timed-out batch may still become durable (the committer
	// finishes the stalled fsync); replay must not double it beyond the
	// single record written.
	release()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir); len(got) > 1 {
		t.Fatalf("recovered %d events, want at most 1", len(got))
	}

	// An already-expired context must not enqueue at all.
	l2, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := l2.AppendBatchCtx(expired, []Event{{Cascade: 9, Node: 1, Time: 1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired-ctx append = %v, want Canceled", err)
	}
}

// TestLogFsyncsOnlyUnsyncedBytes pins what each log operation costs in
// fsyncs: a commit one; a rotation and a Close of a synced segment
// none beyond the new segment's magic line; a Compact one, its
// snapshot, beyond the magic line.
func TestLogFsyncsOnlyUnsyncedBytes(t *testing.T) {
	var disk waltest.Disk
	l, err := Open(t.TempDir(), Options{MaxSegmentBytes: 128, WrapFile: disk.Wrap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cost := func(what string, want int, op func() error) {
		t.Helper()
		before := disk.Syncs()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := disk.Syncs() - before; got != want {
			t.Fatalf("%s cost %d fsyncs, want %d", what, got, want)
		}
	}
	appendEv := func(i int) func() error {
		return func() error { return l.Append(Event{Cascade: 1, Node: i, Time: float64(i)}) }
	}

	// Fill segment 1, one commit an append: the append that no longer
	// fits seals it and commits into segment 2.
	for i := 0; ; i++ {
		start, _ := l.End()
		before := disk.Syncs()
		if err := appendEv(i)(); err != nil {
			t.Fatal(err)
		}
		end, _ := l.End()
		rotated, want := end.Seg != start.Seg, 1
		if rotated {
			want = 2 // the new segment's magic line + the commit
		}
		if got := disk.Syncs() - before; got != want {
			t.Fatalf("append %d (%v -> %v) cost %d fsyncs, want %d", i, start, end, got, want)
		}
		if rotated {
			break
		}
		if i == 50 {
			t.Fatal("50 appends never rotated a 128-byte segment")
		}
	}
	cost("a Compact (magic line + snapshot)", 2, func() error {
		_, err := l.Compact(func() []Event { return []Event{{Cascade: 1, Node: 0, Time: 0}} })
		return err
	})
	cost("a commit", 1, appendEv(100))
	cost("a Close", 0, l.Close)
}
