package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"viralcast/internal/durable"
)

// The fencing epoch lives next to the WAL segments as a tiny
// self-verifying file. It is the fleet's split-brain guard: every
// follower→primary promotion persists a strictly larger epoch before
// the role flips, so two nodes can never both believe they are the
// current primary of the same shard — the one with the smaller epoch
// is fenced by everyone who has seen the larger one. The file uses the
// same envelope discipline as the segments: a magic line so a foreign
// file is rejected outright, and a CRC so a torn or bit-flipped write
// reads as corruption, never as a smaller (resurrecting) epoch.
//
//	"viralcast-epoch v1\n"
//	[8B epoch LE]
//	[4B CRC-32 IEEE of the 8 epoch bytes LE]
const epochMagic = "viralcast-epoch v1\n"

// EpochFileName is the fencing-epoch file created under a WAL (or
// mirror) directory by WriteEpoch.
const EpochFileName = "EPOCH"

// epochFileLen is the exact size of a well-formed epoch file.
const epochFileLen = len(epochMagic) + 8 + 4

// ReadEpoch returns the fencing epoch persisted under dir. A directory
// that has never been promoted has no epoch file and reads as epoch 0;
// a file that exists but does not verify (wrong magic, wrong length,
// CRC mismatch) is an error — a corrupt epoch must halt promotion
// decisions, not silently default to 0 and reopen the split-brain
// window the file exists to close.
func ReadEpoch(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, EpochFileName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: reading epoch: %w", err)
	}
	if len(data) != epochFileLen || string(data[:len(epochMagic)]) != epochMagic {
		return 0, fmt.Errorf("wal: %s is not a viralcast epoch file", EpochFileName)
	}
	payload := data[len(epochMagic) : len(epochMagic)+8]
	want := binary.LittleEndian.Uint32(data[len(epochMagic)+8:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, fmt.Errorf("wal: epoch file CRC mismatch (computed %08x, file says %08x)", got, want)
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// WriteEpoch durably persists epoch under dir: written to a temp file,
// fsynced, renamed over the live file, directory fsynced — atomic on
// crash, so a reader sees either the old epoch or the new one, never a
// torn hybrid. WriteEpoch enforces monotonicity against the file it is
// replacing: an epoch at or below the persisted one is refused, so no
// code path (stale script, replayed request, buggy supervisor) can
// move the fence backwards.
func WriteEpoch(dir string, epoch uint64) error {
	cur, err := ReadEpoch(dir)
	if err != nil {
		return err
	}
	if epoch <= cur {
		return fmt.Errorf("wal: epoch %d is not above the persisted epoch %d", epoch, cur)
	}
	buf := make([]byte, 0, epochFileLen)
	buf = append(buf, epochMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(epochMagic):]))
	if err := durable.WriteFile(filepath.Join(dir, EpochFileName), buf, 0o644); err != nil {
		return fmt.Errorf("wal: writing epoch: %w", err)
	}
	return nil
}
