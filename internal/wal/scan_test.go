package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// TestScanChainAndOpenAgree holds the one scan, SegmentChainAt and Open
// to the same answer on four segment shapes: how many records, where the
// intact prefix ends, and its chain fingerprint. The stub is what a
// crash between creating a segment and fsyncing its magic line leaves;
// the type-2 frame is a CRC-valid record this build cannot decode, which
// every reader must treat as the start of a torn tail.
func TestScanChainAndOpenAgree(t *testing.T) {
	evs := []Event{{1, 1, 0.5}, {1, 2, 0.75}, {2, 3, 1}, {1, 4, 1.5}, {3, 5, 2}}
	magic := []byte(segMagic)
	var frames []byte
	for _, ev := range evs {
		frames = appendFrame(frames, EncodeEvent(ev))
	}
	intact := append(append([]byte(nil), magic...), frames...)
	acked := appendFrame(nil, EncodeEvent(Event{Cascade: 4, Node: 6, Time: 3}))
	unknown := appendFrame(nil, []byte{2, 0})
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	end := int64(len(intact))
	for _, tc := range []struct {
		name    string
		body    []byte
		records int
		good    int64
		// past lists frame boundaries beyond the intact prefix, which no
		// cursor may address.
		past []int64
	}{
		{"clean", intact, len(evs), end, nil},
		{"torn tail", cat(intact, []byte{0x13, 0x00, 0x00, 0x00, 0xba, 0xad}), len(evs), end, []int64{end + 6}},
		{"stub shorter than the magic line", magic[:5], 0, 0, []int64{SegmentHeaderLen}},
		{"CRC-valid type-2 frame, then an acked event", cat(intact, unknown, acked), len(evs), end,
			[]int64{end + int64(len(unknown)), end + int64(len(unknown)+len(acked))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, segmentName(1))
			if err := os.WriteFile(path, tc.body, 0o644); err != nil {
				t.Fatal(err)
			}
			torn := int64(len(tc.body)) != tc.good
			chains := []uint32{ChainSeed(1)} // chains[i]: fingerprint of the first i records
			for _, ev := range evs[:tc.records] {
				chains = append(chains, ChainUpdate(chains[len(chains)-1], EncodeEvent(ev)))
			}

			var cursors []int64
			s, err := ScanSegment(path, func(c Cursor, _ Event) error {
				cursors = append(cursors, c.Off)
				return nil
			})
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			if s.Records != tc.records || s.GoodBytes != tc.good || s.Torn != torn || s.Chain != chains[tc.records] {
				t.Fatalf("scan = (%d records, good %d, torn %v, chain %08x), want (%d, %d, %v, %08x)",
					s.Records, s.GoodBytes, s.Torn, s.Chain, tc.records, tc.good, torn, chains[tc.records])
			}

			// SegmentChainAt at every boundary the scan reported, the
			// end of the intact prefix included, and at none past it.
			if s.GoodBytes >= SegmentHeaderLen {
				cursors = append(cursors, s.GoodBytes)
			}
			for i, off := range cursors {
				fp, n, err := SegmentChainAt(path, off)
				if err != nil || n != i || fp != chains[i] {
					t.Errorf("SegmentChainAt(%d) = (%08x, %d, %v), want (%08x, %d, nil)", off, fp, n, err, chains[i], i)
				}
			}
			for _, off := range tc.past {
				if fp, n, err := SegmentChainAt(path, off); err == nil {
					t.Errorf("SegmentChainAt(%d) past the intact prefix = (%08x, %d), want an error", off, fp, n)
				}
			}

			replayed := 0
			l, err := Open(dir, Options{}, func(Event) error { replayed++; return nil })
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			st := l.Stats()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			wantTrunc := uint64(0)
			if torn {
				wantTrunc = 1
			}
			if replayed != s.Records || st.TornTruncations != wantTrunc || info.Size() != s.GoodBytes {
				t.Fatalf("Open replayed %d, truncated %d tail(s), left %d bytes; the scan says %d records, %d torn, %d good bytes",
					replayed, st.TornTruncations, info.Size(), s.Records, wantTrunc, s.GoodBytes)
			}
		})
	}
}
