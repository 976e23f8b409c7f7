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

// SegmentName exposes the segment file-name convention to external
// readers (the replication stream, the `viralcast wal` subcommands).
func SegmentName(seq uint64) string { return segmentName(seq) }

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

// SegmentWriter is the one writer of segment files: the log's active
// segment and the replication follower's mirror both create, append
// to, seal and close their segments through it. It remembers whether
// it holds bytes no fsync has covered yet and fsyncs only then, so
// sealing, closing or syncing a segment whose every frame is already
// durable costs nothing. Not safe for concurrent use: the log guards
// its writer with its commit lock, the follower's tail loop owns its.
type SegmentWriter struct {
	dir   string
	wrap  func(*os.File) durable.File
	f     durable.File
	seq   uint64
	size  int64 // every byte a write reported written, a short write's too
	dirty bool  // bytes written (or truncated) since the last fsync
}

// CreateSegment creates segment seq in dir, wrapped by wrap when it is
// set, writes the magic line, and fsyncs both the file and the
// directory so the new name survives a crash. A failure after the
// create removes the file again: left behind, it would make every
// later create of seq fail on O_EXCL.
func CreateSegment(dir string, seq uint64, wrap func(*os.File) durable.File) (*SegmentWriter, error) {
	path := filepath.Join(dir, segmentName(seq))
	osf, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f := wrapFile(osf, wrap)
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
		return nil, fmt.Errorf("wal: creating segment %d: %w", seq, err)
	}
	return &SegmentWriter{dir: dir, wrap: wrap, f: f, seq: seq, size: SegmentHeaderLen}, nil
}

// OpenSegment reopens segment seq in dir for appending at offset size,
// the end of its intact prefix, truncating the torn tail a crash left
// past it. The writer starts unsynced, so its first sync also covers
// that truncation and whatever the crash left unsynced before it.
func OpenSegment(dir string, seq uint64, size int64, wrap func(*os.File) durable.File) (*SegmentWriter, error) {
	osf, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := osf.Truncate(size); err == nil {
		_, err = osf.Seek(size, io.SeekStart)
	}
	if err != nil {
		osf.Close()
		return nil, fmt.Errorf("wal: reopening segment %d: %w", seq, err)
	}
	return &SegmentWriter{dir: dir, wrap: wrap, f: wrapFile(osf, wrap), seq: seq, size: size, dirty: true}, nil
}

func wrapFile(f *os.File, wrap func(*os.File) durable.File) durable.File {
	if wrap == nil {
		return f
	}
	return wrap(f)
}

// Write appends p, whole frames by the callers' rule, so the worst a
// crash or a failed write leaves is a torn tail that recovery
// truncates. An empty p writes nothing and leaves nothing to sync.
func (w *SegmentWriter) Write(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	w.dirty = true
	if err != nil {
		return fmt.Errorf("wal: append to segment %d: %w", w.seq, err)
	}
	return nil
}

// Sync fsyncs the segment if it holds unsynced bytes.
func (w *SegmentWriter) Sync() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync segment %d: %w", w.seq, err)
	}
	w.dirty = false
	return nil
}

// Seal syncs the segment and moves the writer to a freshly created
// segment next: a rotation, or a compaction jump the follower mirrors.
// The old file is closed only after its successor exists, so on error
// the writer is unchanged. An error from that close is dropped: the
// file's bytes are already durable.
func (w *SegmentWriter) Seal(next uint64) error {
	if err := w.Sync(); err != nil {
		return err
	}
	nw, err := CreateSegment(w.dir, next, w.wrap)
	if err != nil {
		return err
	}
	w.f.Close()
	*w = *nw
	return nil
}

// Close syncs the segment and closes it.
func (w *SegmentWriter) Close() error {
	err := w.Sync()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: closing segment %d: %w", w.seq, cerr)
	}
	return err
}
