package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Replication-facing addressing and integrity primitives. The WAL's
// frames were always a shippable replication log — length-prefixed,
// CRC-framed, strictly append-only — and this file gives external
// readers (the repl subsystem, the `viralcast wal inspect` CLI) the
// three things a log shipper needs without touching the committer:
//
//   - Cursors. A (segment, offset) pair addresses one frame boundary in
//     the log. Cursors are stable across restarts (segment sequence
//     numbers are never reused) and totally ordered.
//
//   - Chain fingerprints. Each segment carries a running fingerprint:
//     seeded from the segment's sequence number and folded over every
//     record payload in order. Two logs agree at a cursor iff they hold
//     byte-identical record history for that segment prefix — a cheap,
//     incremental check a follower and primary can compare on reconnect
//     to detect silent divergence (a torn tail the follower never saw,
//     bit rot, or a primary that compacted and rewrote history).
//
//   - Positional reads. ReadFrameAt parses one frame at an absolute
//     offset without any shared state with the committer, so a streaming
//     reader can tail the active segment while commits land.

// Cursor addresses a frame boundary in the log: byte offset Off within
// segment Seg. The zero Cursor is "nowhere"; the smallest real position
// is {Seg: 1, Off: SegmentHeaderLen}.
type Cursor struct {
	Seg uint64 `json:"seg"`
	Off int64  `json:"off"`
}

// Less orders cursors by log position.
func (c Cursor) Less(o Cursor) bool {
	if c.Seg != o.Seg {
		return c.Seg < o.Seg
	}
	return c.Off < o.Off
}

func (c Cursor) String() string { return fmt.Sprintf("%d:%d", c.Seg, c.Off) }

// SegmentHeaderLen is the byte length of the magic line that opens
// every segment file — the offset of a segment's first frame.
const SegmentHeaderLen = int64(len(segMagic))

// ChainSeed returns the chain fingerprint of the empty prefix of
// segment seq. Seeding with the sequence number ties a fingerprint to
// the segment's identity, so the same records written under a different
// segment number do not masquerade as the same history.
func ChainSeed(seq uint64) uint32 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	return crc32.ChecksumIEEE(b[:])
}

// ChainUpdate folds one record payload into a chain fingerprint.
func ChainUpdate(fp uint32, payload []byte) uint32 {
	return crc32.Update(fp, crc32.IEEETable, payload)
}

// ReadFrameAt is ReadFrame at absolute offset off of a segment file,
// returning the payload and the offset just past the frame. io.EOF
// means off is exactly the end of the file (a clean boundary). At the
// active tail of a live log, ErrTorn may simply mean a commit's write
// is mid-flight — callers that tail a live segment should retry;
// callers reading a sealed segment should treat it as corruption.
func ReadFrameAt(f io.ReaderAt, off int64) (payload []byte, next int64, err error) {
	payload, err = ReadFrame(io.NewSectionReader(f, off, math.MaxInt64-off))
	if err != nil {
		return nil, off, err
	}
	return payload, off + frameHeaderSize + int64(len(payload)), nil
}

// errAtCursor stops SegmentChainAt's scan at the cursor it was asked
// about.
var errAtCursor = errors.New("wal: scan reached the cursor")

// SegmentChainAt is ScanSegment stopped at offset off: the chain
// fingerprint and record count of the segment's prefix up to exactly
// off. An off that is not a frame boundary of the intact prefix — mid
// frame, past a torn or undecodable frame, or inside the magic line —
// is an error: a cursor pointing there addresses history this log does
// not have.
func SegmentChainAt(path string, off int64) (fp uint32, records int, err error) {
	if off < SegmentHeaderLen {
		return 0, 0, fmt.Errorf("wal: cursor offset %d is inside the segment header", off)
	}
	s, err := ScanSegment(path, func(c Cursor, _ Event) error {
		if c.Off >= off {
			return errAtCursor
		}
		return nil
	})
	if err != nil && err != errAtCursor {
		return 0, 0, err
	}
	if s.GoodBytes != off {
		return 0, 0, fmt.Errorf("wal: %s: offset %d is not a frame boundary of the intact prefix (scan stopped at %d)", path, off, s.GoodBytes)
	}
	return s.Chain, s.Records, nil
}

// End reports the log's current append position (the cursor the next
// record will be written at) and the total records the log has seen
// this instance — replayed at Open, appended since, and written by
// compaction snapshots. The pair is read atomically under the commit
// lock, so a streamed record index compared against a later End() is
// never ahead of it.
func (l *Log) End() (Cursor, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg == nil {
		return Cursor{}, l.totalRecs
	}
	return Cursor{Seg: l.seg.seq, Off: l.seg.size}, l.totalRecs
}

// RecordsBefore reports how many records (in this instance's End()
// coordinate system) precede the first frame of segment seq. It is
// known for every segment currently on disk.
func (l *Log) RecordsBefore(seq uint64) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	base, ok := l.recBase[seq]
	return base, ok
}
