package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"viralcast/internal/durable"
)

// segMagic is the first line of every segment file. Like the embeddings
// envelope's magic, it lets a reader reject a foreign file outright
// instead of misparsing it as frames.
const segMagic = "viralcast-wal v1\n"

// segmentName formats the file name of segment seq; the zero-padded
// fixed width makes lexical order equal numeric order.
func segmentName(seq uint64) string {
	return fmt.Sprintf("wal-%016d.log", seq)
}

// SegmentName exposes the segment file-name convention to external log
// writers (the replication mirror) and readers.
func SegmentName(seq uint64) string { return segmentName(seq) }

// CreateSegmentFile creates segment seq in dir with the magic line
// written and fsynced (file and directory), returning the open file
// positioned for appends. The replication follower uses it to build a
// byte-identical mirror of the primary's segments.
func CreateSegmentFile(dir string, seq uint64) (*os.File, error) {
	seg, err := createSegment(dir, seq, nil)
	if err != nil {
		return nil, err
	}
	return seg.f.(*os.File), nil // no wrapper: the file itself
}

// parseSegmentName extracts the sequence number from a segment file
// name, reporting false for anything that is not a WAL segment.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(digits) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// SegmentInfo identifies one on-disk segment file.
type SegmentInfo struct {
	Path string
	Seq  uint64
	Size int64
}

// ListSegments returns the WAL segments under dir in sequence order.
// Non-segment files are ignored, so a stray editor backup or an
// operator's notes never break recovery.
func ListSegments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []SegmentInfo
	for _, e := range entries {
		seq, ok := parseSegmentName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		segs = append(segs, SegmentInfo{Path: filepath.Join(dir, e.Name()), Seq: seq, Size: info.Size()})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].Seq < segs[b].Seq })
	return segs, nil
}

// segment is the active segment file the committer appends to.
type segment struct {
	f    durable.File
	seq  uint64
	size int64
}

// createSegment creates segment seq in dir, wrapped by wrap when it is
// set, writes the magic line, and fsyncs both the file and the
// directory so the new name survives a crash. A failure after the
// create removes the file again: left behind, it would make every
// later create of seq fail on O_EXCL.
func createSegment(dir string, seq uint64, wrap func(*os.File) durable.File) (*segment, error) {
	path := filepath.Join(dir, segmentName(seq))
	osf, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var f durable.File = osf
	if wrap != nil {
		f = wrap(osf)
	}
	_, err = io.WriteString(f, segMagic)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = durable.SyncDir(dir)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &segment{f: f, seq: seq, size: int64(len(segMagic))}, nil
}
