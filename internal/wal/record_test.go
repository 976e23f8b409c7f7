package wal

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func TestRecordRoundtrip(t *testing.T) {
	evs := []Event{
		{Cascade: 0, Node: 0, Time: 0},
		{Cascade: 31337, Node: 42, Time: 1.25},
		{Cascade: math.MaxInt32, Node: 1 << 40, Time: 1e-300},
		{Cascade: 7, Node: 7, Time: math.MaxFloat64},
	}
	var buf []byte
	for _, ev := range evs {
		buf = appendFrame(buf, appendEventPayload(nil, ev))
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range evs {
		_, got, err := readRecord(br)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, _, err := readRecord(br); err != io.EOF {
		t.Fatalf("after last record: got %v, want io.EOF", err)
	}
}

func TestReadRecordRejectsCorruption(t *testing.T) {
	frame := appendFrame(nil, appendEventPayload(nil, Event{Cascade: 1, Node: 2, Time: 3}))
	cases := map[string][]byte{
		"partial header":     frame[:frameHeaderSize-3],
		"partial payload":    frame[:len(frame)-2],
		"flipped bit":        flipBit(frame, len(frame)-1),
		"flipped crc":        flipBit(frame, 5),
		"zero fill":          make([]byte, 64),
		"implausible length": {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
	}
	for name, data := range cases {
		br := bufio.NewReader(bytes.NewReader(data))
		if _, _, err := readRecord(br); !errors.Is(err, ErrTorn) {
			t.Errorf("%s: got %v, want ErrTorn", name, err)
		}
	}
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

// FuzzReadRecord is the satellite framing fuzzer: arbitrary corruption,
// truncation, and torn tails must never panic and must never yield a
// record whose frame would not verify — i.e. anything readRecord
// returns must survive a re-encode/re-read roundtrip. The same bytes,
// as a segment image, must scan to exactly the records the decoder
// read, ending where the decoder stopped.
func FuzzReadRecord(f *testing.F) {
	f.Add(appendFrame(nil, appendEventPayload(nil, Event{Cascade: 3, Node: 9, Time: 0.5})))
	two := appendFrame(nil, appendEventPayload(nil, Event{Cascade: 1, Node: 1, Time: 1}))
	two = appendFrame(two, appendEventPayload(nil, Event{Cascade: 2, Node: 2, Time: 2}))
	f.Add(two)
	f.Add(two[:len(two)-3])                               // torn tail
	f.Add(make([]byte, 32))                               // zero fill
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})     // garbage length
	f.Add([]byte(segMagic[:9]))                           // stub segment, shorter than its magic line
	f.Add(append(appendFrame(nil, []byte{2, 0}), two...)) // CRC-valid type-2 frame, then acked events
	f.Add(two[5:])                                        // read from a mid-frame cursor
	f.Add(append([]byte(segMagic), two...))               // a whole segment
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bytes that start like a segment (a stub, or the magic line) are
		// the segment image; anything else is the frames after a magic
		// line.
		img := data
		if !bytes.HasPrefix(data, []byte(segMagic)) && !bytes.HasPrefix([]byte(segMagic), data) {
			img = append([]byte(segMagic), data...)
		}
		var payloads [][]byte
		clean := true
		if len(img) >= len(segMagic) {
			r := bytes.NewReader(img[len(segMagic):])
			for {
				payload, ev, err := readRecord(r)
				if err != nil {
					if err != io.EOF && !errors.Is(err, ErrTorn) {
						t.Fatalf("unexpected error class: %v", err)
					}
					clean = err == io.EOF
					break
				}
				// A decoded record must re-frame to something readable as
				// itself: CRC-valid and value-identical.
				re := appendFrame(nil, appendEventPayload(nil, ev))
				_, got, err := readRecord(bytes.NewReader(re))
				if err != nil {
					t.Fatalf("re-read of decoded record failed: %v", err)
				}
				if got.Cascade != ev.Cascade || got.Node != ev.Node ||
					(got.Time != ev.Time && !(math.IsNaN(got.Time) && math.IsNaN(ev.Time))) {
					t.Fatalf("roundtrip mismatch: %+v vs %+v", got, ev)
				}
				payloads = append(payloads, payload)
			}
		}

		s := SegmentScan{Seq: 1, Size: int64(len(img))}
		var cursors []int64
		if err := s.scan(bufio.NewReader(bytes.NewReader(img)), func(c Cursor, _ Event) error {
			cursors = append(cursors, c.Off)
			return nil
		}); err != nil {
			t.Fatalf("scan of a segment image failed hard: %v", err)
		}
		if len(img) < len(segMagic) {
			if !s.Torn || s.GoodBytes != 0 || s.Records != 0 {
				t.Fatalf("stub of %d bytes scanned as %+v, want torn at byte 0", len(img), s)
			}
			return
		}
		chain, off := ChainSeed(1), SegmentHeaderLen
		for i, p := range payloads {
			if i >= len(cursors) || cursors[i] != off {
				t.Fatalf("record %d: scan cursors %v, decoder frame at %d", i, cursors, off)
			}
			chain = ChainUpdate(chain, p)
			off += frameHeaderSize + int64(len(p))
		}
		if s.Records != len(payloads) || s.GoodBytes != off || s.Chain != chain || s.Torn == clean {
			t.Fatalf("scan = %+v; decoder read %d records to byte %d (chain %08x, clean %v)", s, len(payloads), off, chain, clean)
		}
		if s.Torn == (s.GoodBytes == s.Size) {
			t.Fatalf("scan torn=%v with %d of %d bytes intact", s.Torn, s.GoodBytes, s.Size)
		}
	})
}
