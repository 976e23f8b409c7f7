// Package durable holds the filesystem steps that make a write survive
// a power loss, not just a process crash: fsync the file, rename it into
// place, fsync the directory that holds the new name. The write-ahead
// log's segments and fencing epoch and the training checkpoint share
// them.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data: the bytes go to a
// temporary file in the same directory (same filesystem, so the rename
// is atomic), which is fsynced, renamed over path, and followed by a
// directory fsync. A reader sees either the old file or the new one,
// never a torn hybrid, and once WriteFile returns the new name is on
// disk.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// File is what a durable writer needs of an *os.File. Every WAL segment
// file (the log's and a replication follower's mirror) is written
// through it, so a test can stand a disk that fails or stalls in for
// the real one. It is declared here rather
// than in wal so that the fake (internal/wal/waltest) need not import
// wal, whose own tests use the fake.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// SyncDir fsyncs a directory, making creates, renames and removals
// within it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sync %s: %w", dir, err)
	}
	return nil
}
