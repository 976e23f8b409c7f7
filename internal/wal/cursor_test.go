package wal

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// walkSegment reads every frame of a segment file via ReadFrameAt,
// returning the decoded events and the offset past the last frame.
func walkSegment(t *testing.T, path string) ([]Event, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	defer f.Close()
	var evs []Event
	off := SegmentHeaderLen
	for {
		payload, next, err := ReadFrameAt(f, off)
		if err == io.EOF {
			return evs, off
		}
		if err != nil {
			t.Fatalf("ReadFrameAt(%d): %v", off, err)
		}
		ev, err := DecodeEvent(payload)
		if err != nil {
			t.Fatalf("DecodeEvent at %d: %v", off, err)
		}
		evs = append(evs, ev)
		off = next
	}
}

func TestReadFrameAtRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoGroupCommit: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{Cascade: 1, Node: 10, Time: 0.5}, {Cascade: 2, Node: 20, Time: 1.25}, {Cascade: 1, Node: 11, Time: 2}}
	if err := l.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	cur, total := l.End()
	if total != uint64(len(want)) {
		t.Fatalf("End total = %d, want %d", total, len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentName(cur.Seg))
	got, end := walkSegment(t, path)
	if end != cur.Off {
		t.Fatalf("walked to offset %d, End() said %d", end, cur.Off)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSegmentChainMatchesIncremental(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoGroupCommit: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := l.Append(Event{Cascade: i, Node: i * 3, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cur, _ := l.End()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentName(cur.Seg))

	// Incremental fingerprint computed payload by payload must match the
	// whole-file scan and the prefix scan at the end cursor.
	fp := ChainSeed(cur.Seg)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	off := SegmentHeaderLen
	n := 0
	for {
		payload, next, err := ReadFrameAt(f, off)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		fp = ChainUpdate(fp, payload)
		n++
		off = next
	}
	f.Close()

	scan, err := ScanSegment(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotFP, recs, good, torn := scan.Chain, scan.Records, scan.GoodBytes, scan.Torn
	if torn {
		t.Fatal("clean segment reported torn")
	}
	if gotFP != fp || recs != n || good != off {
		t.Fatalf("SegmentChain = (%08x, %d, %d), want (%08x, %d, %d)", gotFP, recs, good, fp, n, off)
	}
	atFP, atRecs, err := SegmentChainAt(path, cur.Off)
	if err != nil {
		t.Fatal(err)
	}
	if atFP != fp || atRecs != n {
		t.Fatalf("SegmentChainAt(end) = (%08x, %d), want (%08x, %d)", atFP, atRecs, fp, n)
	}

	// A cursor that is not a frame boundary is rejected.
	if _, _, err := SegmentChainAt(path, cur.Off-1); err == nil {
		t.Fatal("SegmentChainAt accepted a mid-frame offset")
	}
	// A cursor past the intact prefix is rejected.
	if _, _, err := SegmentChainAt(path, cur.Off+100); err == nil {
		t.Fatal("SegmentChainAt accepted an offset past EOF")
	}
}

func TestSegmentChainTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoGroupCommit: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{Cascade: 1, Node: 2, Time: 3}); err != nil {
		t.Fatal(err)
	}
	cur, _ := l.End()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentName(cur.Seg))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xba, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	scan, err := ScanSegment(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp, recs, good, torn := scan.Chain, scan.Records, scan.GoodBytes, scan.Torn
	if !torn {
		t.Fatal("smeared tail not reported torn")
	}
	if recs != 1 || good != cur.Off {
		t.Fatalf("intact prefix = (%d records, %d bytes), want (1, %d)", recs, good, cur.Off)
	}
	if want, _, _ := fp, recs, good; want != ChainUpdate(ChainSeed(cur.Seg), EncodeEvent(Event{Cascade: 1, Node: 2, Time: 3})) {
		t.Fatalf("fingerprint of intact prefix does not match recomputation")
	}
}

func TestRotationAndRecordsBefore(t *testing.T) {
	dir := t.TempDir()
	// Segment 1 holds exactly five frames: the sixth append rotates.
	frameLen := int64(len(AppendFrame(nil, EncodeEvent(Event{Cascade: 9, Node: 9, Time: 9}))))
	l, err := Open(dir, Options{NoGroupCommit: true, MaxSegmentBytes: SegmentHeaderLen + 5*frameLen}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.Append(Event{Cascade: i, Node: i, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := l.End()
	if err := l.Append(Event{Cascade: 9, Node: 9, Time: 9}); err != nil {
		t.Fatal(err)
	}
	end, total := l.End()
	if end.Seg != before.Seg+1 || end.Off != SegmentHeaderLen+frameLen || total != 6 {
		t.Fatalf("End = (%v, %d), want {%d %d} total 6", end, total, before.Seg+1, SegmentHeaderLen+frameLen)
	}
	base, ok := l.RecordsBefore(end.Seg)
	if !ok || base != 5 {
		t.Fatalf("RecordsBefore(%d) = (%d, %v), want (5, true)", end.Seg, base, ok)
	}
	if base, ok := l.RecordsBefore(before.Seg); !ok || base != 0 {
		t.Fatalf("RecordsBefore(%d) = (%d, %v), want (0, true)", before.Seg, base, ok)
	}
}

func TestRecordIndexSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoGroupCommit: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(Event{Cascade: i, Node: i, Time: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{NoGroupCommit: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, total := l2.End()
	if total != 3 {
		t.Fatalf("reopened total = %d, want 3", total)
	}
	end, _ := l2.End()
	base, ok := l2.RecordsBefore(end.Seg)
	if !ok || base != 3 {
		t.Fatalf("RecordsBefore(fresh seg) = (%d, %v), want (3, true)", base, ok)
	}
}
