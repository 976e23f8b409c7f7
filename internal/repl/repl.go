// Package repl is viralcastd's primary/follower replication layer: it
// ships the primary's CRC-framed WAL over HTTP to warm followers that
// hold a byte-identical mirror of the log and an up-to-date copy of the
// live-cascade state, ready to be promoted when the primary dies.
//
// The design leans entirely on properties the WAL already has:
//
//   - Frames are deterministic bytes. A record payload always produces
//     the same [len][crc][payload] frame, so a follower that appends
//     streamed frames to its own segment files reconstructs the
//     primary's segments byte for byte. Promotion is then nothing more
//     than opening the mirror directory as an ordinary WAL.
//
//   - Cursors are stable. A (segment, offset) pair names a frame
//     boundary forever — segment sequence numbers are never reused — so
//     a follower can disconnect, crash, restart, and resume the stream
//     from exactly where its mirror ends.
//
//   - Chain fingerprints make divergence loud. Each segment carries a
//     running CRC folded over every record payload, seeded from the
//     segment's sequence number. On every (re)connect the follower
//     presents its cursor AND the fingerprint of its local prefix; the
//     primary recomputes the fingerprint of its own prefix at that
//     cursor and answers 409 on mismatch. A follower that hears 409
//     stops serving and re-bootstraps rather than serving wrong data.
//
// There is one format on the wire and on disk: WAL frames. A follower
// with no mirror bootstraps by opening the stream at seg=0, the
// primary's oldest surviving segment from its header, and creates each
// mirror segment from the first frame that names it — so its mirror is
// the primary's segments one for one, and its store is what a primary
// restart would replay: every surviving segment in order, the overlap
// between a compaction snapshot and the history it summarizes absorbed
// by the store's SI duplicate guard (Compact's own argument). The
// follower serves nothing until it has applied every record the
// primary held when the stream opened, a count the first item's lag
// carries, and a durable marker beside the mirror carries that across a
// restart: a mirror without it is a partial bootstrap, replayed but not
// served until the resumed stream catches up. Compaction on the primary is likewise benign mid-stream: a
// cursor that compaction deleted answers 410, and the follower wipes
// its mirror and re-bootstraps; a stream that reaches the end of a
// deleted-but-still-open segment simply advances to the next surviving
// segment, whose compaction snapshot re-ships the full live state into
// the same duplicate guard.
package repl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"viralcast/internal/wal"
)

// StreamPath is the HTTP path a primary mounts the stream on (the serve
// layer wires it under its control plane).
const StreamPath = "/v1/repl/stream"

// Stream item types. A stream response body is a sequence of items:
//
//	frame:     ['F'][8B seg LE][8B off LE][8B lag LE][4B n LE][n frame bytes]
//	heartbeat: ['H'][8B seg LE][8B off LE][8B lag LE]
//
// A frame item carries one WAL frame plus the cursor it starts at in
// the primary's log and the primary's record lag *after* this record is
// applied. Heartbeats are sent while the follower is caught up, keeping
// the connection demonstrably live and the follower's lag clock fresh.
const (
	itemFrame     = byte('F')
	itemHeartbeat = byte('H')
)

// itemHeaderLen is type byte + seg + off + lag.
const itemHeaderLen = 1 + 8 + 8 + 8

// appendItemHeader encodes the common item prefix.
func appendItemHeader(dst []byte, typ byte, seg uint64, off int64, lag uint64) []byte {
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint64(dst, seg)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(off))
	dst = binary.LittleEndian.AppendUint64(dst, lag)
	return dst
}

// streamItem is one decoded item from a stream response.
type streamItem struct {
	typ   byte
	seg   uint64
	off   int64
	lag   uint64
	frame []byte // whole frame bytes (header+payload), frame items only
}

// readItem reads one stream item. io.EOF at an item boundary means the
// primary closed the stream cleanly; any torn item is an error (the
// connection died mid-write — reconnect and resume by cursor).
func readItem(r io.Reader) (streamItem, error) {
	var hdr [itemHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return streamItem{}, io.EOF
		}
		return streamItem{}, fmt.Errorf("repl: stream read: %w", err)
	}
	it := streamItem{typ: hdr[0]}
	if it.typ != itemFrame && it.typ != itemHeartbeat {
		return streamItem{}, fmt.Errorf("repl: unknown stream item type 0x%02x", it.typ)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return streamItem{}, fmt.Errorf("repl: torn stream item header: %w", err)
	}
	it.seg = binary.LittleEndian.Uint64(hdr[1:9])
	it.off = int64(binary.LittleEndian.Uint64(hdr[9:17]))
	it.lag = binary.LittleEndian.Uint64(hdr[17:25])
	if it.typ == itemHeartbeat {
		return it, nil
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return streamItem{}, fmt.Errorf("repl: torn frame item length: %w", err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 || n > wal.MaxRecordBytes+16 {
		return streamItem{}, fmt.Errorf("repl: implausible frame item length %d", n)
	}
	it.frame = make([]byte, n)
	if _, err := io.ReadFull(r, it.frame); err != nil {
		return streamItem{}, fmt.Errorf("repl: torn frame item body: %w", err)
	}
	return it, nil
}

// verify reads a frame item's bytes with the WAL's own decoder: exactly
// one CRC-valid frame whose record this build decodes. Only a verified
// frame may reach the mirror, so the mirror never holds a frame its
// own restart scan would call torn.
func (it streamItem) verify() ([]byte, wal.Event, error) {
	payload, next, err := wal.ReadFrameAt(bytes.NewReader(it.frame), 0)
	if err == nil && next != int64(len(it.frame)) {
		err = fmt.Errorf("%d bytes after the frame", int64(len(it.frame))-next)
	}
	var ev wal.Event
	if err == nil {
		ev, err = wal.DecodeEvent(payload)
	}
	if err != nil {
		return nil, wal.Event{}, fmt.Errorf("repl: streamed frame at %d:%d failed verification: %w", it.seg, it.off, err)
	}
	return payload, ev, nil
}
