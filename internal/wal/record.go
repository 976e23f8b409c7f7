package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Frame layout, following the envelope discipline of embed.WriteSigned
// (declared payload length + CRC-32 ahead of the payload, so a reader
// can reject truncation and bit rot before decoding anything):
//
//	[4B payload length, uint32 LE][4B CRC-32 (IEEE) of payload, LE][payload]
//
// The payload itself starts with a one-byte record type.
const frameHeaderSize = 8

// MaxRecordBytes caps a single record's payload. Real event records are
// ~20 bytes; the cap exists so a corrupt length field cannot make the
// reader allocate gigabytes before the CRC check gets a chance to fail.
const MaxRecordBytes = 1 << 20

// recEvent is the record type of one ingested cascade event.
const recEvent = 1

// ErrTorn marks the first unreadable frame in a segment: a truncated
// header or payload, an implausible length, a CRC mismatch, or an
// undecodable record body. Recovery treats everything from that offset
// on as a torn tail — truncated, never replayed.
var ErrTorn = errors.New("wal: torn or corrupt record")

// Event is one durably logged infection report: node Node adopted the
// story of cascade Cascade at cascade-relative time Time (same units as
// training data). The JSON tags are the serving layer's ingest wire
// shape: internal/serve aliases this type, so one event is parsed,
// stored, logged and replicated without conversion.
type Event struct {
	Cascade int     `json:"cascade"`
	Node    int     `json:"node"`
	Time    float64 `json:"time"`
}

// appendEventPayload encodes ev as a record payload: type byte, varint
// cascade id, varint node id, raw float64 time bits.
func appendEventPayload(buf []byte, ev Event) []byte {
	buf = append(buf, recEvent)
	buf = binary.AppendUvarint(buf, uint64(ev.Cascade))
	buf = binary.AppendUvarint(buf, uint64(ev.Node))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Time))
	return buf
}

// decodeEventPayload decodes a payload written by appendEventPayload.
// Any structural problem is reported as ErrTorn: a frame whose CRC
// matched but whose body does not decode is corruption all the same.
func decodeEventPayload(p []byte) (Event, error) {
	if len(p) == 0 || p[0] != recEvent {
		return Event{}, fmt.Errorf("%w: unknown record type", ErrTorn)
	}
	rest := p[1:]
	casc, n := binary.Uvarint(rest)
	if n <= 0 || casc > math.MaxInt64 {
		return Event{}, fmt.Errorf("%w: bad cascade id varint", ErrTorn)
	}
	rest = rest[n:]
	node, n := binary.Uvarint(rest)
	if n <= 0 || node > math.MaxInt64 {
		return Event{}, fmt.Errorf("%w: bad node id varint", ErrTorn)
	}
	rest = rest[n:]
	if len(rest) != 8 {
		return Event{}, fmt.Errorf("%w: event record has %d trailing time bytes, want 8", ErrTorn, len(rest))
	}
	t := math.Float64frombits(binary.LittleEndian.Uint64(rest))
	return Event{Cascade: int(casc), Node: int(node), Time: t}, nil
}

// EncodeEvent returns the canonical record-payload encoding of ev —
// the bytes a frame carries, and the unit the chain fingerprints are
// computed over.
func EncodeEvent(ev Event) []byte { return appendEventPayload(nil, ev) }

// DecodeEvent decodes a record payload written by EncodeEvent.
func DecodeEvent(p []byte) (Event, error) { return decodeEventPayload(p) }

// AppendFrame wraps payload in the WAL's length+CRC frame and appends
// it to dst. The framing is deterministic: the same payload always
// produces the same frame bytes, which is what lets a replication
// follower rebuild a byte-identical copy of the primary's segments
// from streamed payloads.
func AppendFrame(dst, payload []byte) []byte { return appendFrame(dst, payload) }

// appendFrame wraps payload in a length+CRC frame and appends it to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// ReadFrame is the log's one frame decoder: it reads the frame header,
// bounds the length, reads the payload and checks its CRC. It returns
// io.EOF exactly at a clean frame boundary; any partial header, partial
// payload, implausible length, or CRC mismatch comes back wrapped in
// ErrTorn. A zero-length frame is torn too — no valid record is empty,
// and a zero-filled tail (a crashed filesystem's favorite) would
// otherwise parse as infinitely many of them. The frame occupies
// frameHeaderSize+len(payload) bytes of r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated frame header: %v", ErrTorn, err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > MaxRecordBytes {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrTorn, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload (want %d bytes): %v", ErrTorn, length, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("%w: payload crc32 %08x, frame says %08x", ErrTorn, got, wantCRC)
	}
	return payload, nil
}

// readRecord reads one frame and decodes its record, returning the
// payload too (the chain fingerprint folds payloads). A CRC-valid
// payload that does not decode is ErrTorn like any other bad frame, so
// every reader of the log stops at the same byte.
func readRecord(r io.Reader) ([]byte, Event, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, Event{}, err
	}
	ev, err := decodeEventPayload(payload)
	return payload, ev, err
}
