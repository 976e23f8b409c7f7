package repl

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"viralcast/internal/wal"
)

// frameItem encodes one complete frame stream item for fuzz seeding.
func frameItem(seg uint64, off int64, lag uint64, frame []byte) []byte {
	b := appendItemHeader(nil, itemFrame, seg, off, lag)
	b = append(b, byte(len(frame)), byte(len(frame)>>8), byte(len(frame)>>16), byte(len(frame)>>24))
	return append(b, frame...)
}

// fuzzFlipBit returns data with bit i flipped, without touching data.
func fuzzFlipBit(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i/8] ^= 1 << (i % 8)
	return out
}

// FuzzReadFrame feeds arbitrary byte streams to the replication stream
// decoder — the follower's trust boundary with the network — mirroring
// the WAL's FuzzReadRecord. Whatever the bytes, readItem must either
// decode an item or fail with a classified error (clean io.EOF at an
// item boundary, or a descriptive repl error for torn/garbage input);
// it must never panic, never hang on a bounded reader, and never
// allocate an implausible frame buffer. Every decoded frame item must
// re-encode to bytes that decode back to the identical item, and a frame
// the follower's verification accepts must be the WAL's own framing of
// its payload.
func FuzzReadFrame(f *testing.F) {
	frame := []byte("0123456789abcdef0123456789abcdef")
	one := frameItem(2, 64, 1, frame)
	hb := appendItemHeader(nil, itemHeartbeat, 7, 4096, 0)
	f.Add(one)
	f.Add(hb)
	f.Add(append(append([]byte(nil), one...), hb...)) // frame then heartbeat
	f.Add(one[:len(one)-5])                           // torn frame body
	f.Add(one[:itemHeaderLen+2])                      // torn length field
	f.Add(one[:itemHeaderLen-9])                      // torn item header
	f.Add(fuzzFlipBit(one, 3))                        // corrupted type byte
	f.Add(fuzzFlipBit(one, (itemHeaderLen+3)*8-1))    // corrupted length high bit
	f.Add([]byte{itemFrame})                          // type byte only
	f.Add(make([]byte, 64))                           // zero fill: unknown type 0x00
	event := wal.AppendFrame(nil, wal.EncodeEvent(wal.Event{Cascade: 3, Node: 9, Time: 0.5}))
	f.Add(frameItem(2, wal.SegmentHeaderLen, 0, []byte("viralcast-wal")))                                   // a stub segment's bytes as the frame
	f.Add(frameItem(2, wal.SegmentHeaderLen, 1, wal.AppendFrame(nil, []byte{2, 0})))                        // CRC-valid type-2 frame
	f.Add(frameItem(2, wal.SegmentHeaderLen+5, 0, append(append([]byte(nil), event[5:]...), event[:5]...))) // mid-frame cursor
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			it, err := readItem(r)
			if err != nil {
				if err == io.EOF {
					return // clean end at an item boundary
				}
				if !strings.HasPrefix(err.Error(), "repl: ") {
					t.Fatalf("unclassified error: %v", err)
				}
				if errors.Is(err, io.EOF) && err.Error() == io.EOF.Error() {
					t.Fatalf("bare EOF escaped mid-item: %v", err)
				}
				return
			}
			switch it.typ {
			case itemHeartbeat:
				if it.frame != nil {
					t.Fatalf("heartbeat carries a frame: %+v", it)
				}
			case itemFrame:
				if n := len(it.frame); n == 0 || n > wal.MaxRecordBytes+16 {
					t.Fatalf("decoded frame has implausible length %d", n)
				}
				// Re-encode and decode: the roundtrip must be identical.
				re := frameItem(it.seg, it.off, it.lag, it.frame)
				got, rerr := readItem(bufio.NewReader(bytes.NewReader(re)))
				if rerr != nil {
					t.Fatalf("re-read of decoded item failed: %v", rerr)
				}
				if got.typ != it.typ || got.seg != it.seg || got.off != it.off ||
					got.lag != it.lag || !bytes.Equal(got.frame, it.frame) {
					t.Fatalf("roundtrip mismatch: %+v vs %+v", got, it)
				}
				// What verification lets through to the mirror is exactly
				// the frame the WAL would write for that payload.
				if payload, _, err := it.verify(); err == nil && !bytes.Equal(wal.AppendFrame(nil, payload), it.frame) {
					t.Fatalf("verified frame %x is not the WAL's framing of its payload", it.frame)
				} else if err != nil && !strings.HasPrefix(err.Error(), "repl: ") {
					t.Fatalf("unclassified verification error: %v", err)
				}
			default:
				t.Fatalf("readItem returned unknown type 0x%02x without error", it.typ)
			}
		}
	})
}
