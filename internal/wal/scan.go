package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SegmentScan reports what a read pass over one segment found.
type SegmentScan struct {
	Path    string
	Seq     uint64
	Size    int64 // file size at scan time
	Records int   // intact records read
	// GoodBytes is the offset just past the last intact frame — equal
	// to Size when the segment is clean. Recovery truncates the file
	// here.
	GoodBytes int64
	// Chain is the chain fingerprint of the intact prefix: the value a
	// follower whose mirror ends at GoodBytes presents on reconnect.
	Chain uint32
	// Torn is set when the segment ends in an unreadable frame; TornErr
	// says why.
	Torn    bool
	TornErr error
}

// ScanSegment is the log's one segment scan: recovery, the chain
// fingerprints, the replication follower and the `viralcast wal`
// subcommands all read a segment through it, so they agree on every
// record and on where the segment ends. It reads every intact record
// in order, calling fn (which may be nil) with each record and the
// cursor of its frame; an error from fn stops the scan before that
// record is counted. Where a segment ends follows one rule:
//
//   - a file shorter than the magic line (a crash between create and
//     the magic line's fsync) is torn at byte 0;
//   - a full-length magic line that is not the WAL's is a hard error,
//     not a torn tail: truncating a foreign file would destroy someone
//     else's data;
//   - the first frame ReadFrame rejects, or whose CRC-valid payload
//     does not decode, is where the torn tail starts.
//
// ScanSegment never modifies the file: Open does the truncation, the
// `viralcast wal` subcommands only look.
func ScanSegment(path string, fn func(Cursor, Event) error) (SegmentScan, error) {
	seq, ok := parseSegmentName(filepath.Base(path))
	if !ok {
		return SegmentScan{}, fmt.Errorf("wal: %q is not a segment file name", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return SegmentScan{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return SegmentScan{}, fmt.Errorf("wal: %w", err)
	}
	s := SegmentScan{Path: path, Seq: seq, Size: st.Size()}
	err = s.scan(bufio.NewReader(f), fn)
	return s, err
}

// ScanDir is ScanSegment over every segment under dir in sequence
// order, each read once: the one directory scan behind recovery, the
// follower's restart replay and the `viralcast wal` subcommands. On an
// error it returns the scans it finished before it too. Each caller
// keeps its own torn-tail policy: Open truncates and starts a fresh
// segment, the follower refuses a torn segment before its last and
// reopens the last, the subcommands only report.
func ScanDir(dir string, fn func(Cursor, Event) error) ([]SegmentScan, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	scans := make([]SegmentScan, 0, len(segs))
	for _, si := range segs {
		scan, err := ScanSegment(si.Path, fn)
		if err != nil {
			return scans, err
		}
		scans = append(scans, scan)
	}
	return scans, nil
}

// scan reads the segment image r into s under ScanSegment's rule.
func (s *SegmentScan) scan(r io.Reader, fn func(Cursor, Event) error) error {
	s.Chain = ChainSeed(s.Seq)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		s.Torn, s.TornErr = true, fmt.Errorf("%w: segment shorter than its magic line", ErrTorn)
		return nil
	}
	if string(magic) != segMagic {
		return fmt.Errorf("wal: %s is not a viralcast WAL segment (starts %q)", s.Path, firstLine(magic))
	}
	s.GoodBytes = SegmentHeaderLen
	for {
		payload, ev, err := readRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			s.Torn, s.TornErr = true, err
			return nil
		}
		if fn != nil {
			if err := fn(Cursor{Seg: s.Seq, Off: s.GoodBytes}, ev); err != nil {
				return err
			}
		}
		s.Records++
		s.Chain = ChainUpdate(s.Chain, payload)
		s.GoodBytes += frameHeaderSize + int64(len(payload))
	}
}

// firstLine trims b at the first newline for error messages.
func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}
