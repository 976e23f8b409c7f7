// Package waltest is a disk that fails on cue, for the write-ahead
// log's tests. Only tests import it.
package waltest

import (
	"fmt"
	"os"
	"sync"

	"viralcast/internal/durable"
)

const (
	opWrite = iota
	opSync
	opWrap
)

// fault stands in for one Write or Sync call (p is nil for a Sync).
type fault func(f *os.File, p []byte) (int, error)

// Disk hands a log its segment files through Wrap, which is the value
// of wal.Options.WrapFile (in a daemon, through serve's unexported
// walOpts seam; in a replication follower, through its file seam), and
// passes their Write, Sync and
// Close to the real file until an armed fault fires. A fault is armed for the n-th call from now (n = 1 is the
// next), counted across every file the disk wrapped, and fires once.
// The zero value never fails. Safe for concurrent use.
type Disk struct {
	mu     sync.Mutex
	calls  [3]int // Write, Sync and Wrap calls so far
	faults map[[2]int]fault
}

// Wrap is the file seam.
func (d *Disk) Wrap(f *os.File) durable.File {
	if fn := d.next(opWrap); fn != nil {
		// The log writes the new segment's magic line before any other
		// write, so the file's first Write is the disk's next.
		d.arm(opWrite, 1, fn)
	}
	return &file{f: f, d: d}
}

// FailSync makes the n-th Sync return err without syncing.
func (d *Disk) FailSync(n int, err error) {
	d.arm(opSync, n, func(*os.File, []byte) (int, error) { return 0, err })
}

// StallSync makes the n-th Sync block until release is called, then
// sync for real. entered closes when that Sync begins.
func (d *Disk) StallSync(n int) (entered <-chan struct{}, release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	d.arm(opSync, n, func(f *os.File, _ []byte) (int, error) {
		close(in)
		<-out
		return 0, f.Sync()
	})
	var once sync.Once
	return in, func() { once.Do(func() { close(out) }) }
}

// ExitAfterSync makes the n-th Sync sync for real and then end the
// process with code: a hard kill the moment a commit became durable,
// before anyone is acknowledged. Nothing deferred runs.
func (d *Disk) ExitAfterSync(n, code int) {
	d.arm(opSync, n, func(f *os.File, _ []byte) (int, error) {
		if err := f.Sync(); err != nil {
			return 0, err
		}
		os.Exit(code)
		return 0, nil
	})
}

// TearWrite makes the n-th Write write all but the last cut bytes and
// return an error: a crash between write and fsync leaves that torn
// tail on disk.
func (d *Disk) TearWrite(n, cut int) {
	d.arm(opWrite, n, func(f *os.File, p []byte) (int, error) {
		k, err := f.Write(p[:max(len(p)-cut, 0)])
		if err == nil {
			err = fmt.Errorf("waltest: torn write: %d of %d bytes", k, len(p))
		}
		return k, err
	})
}

// FailCreate makes the next file the disk wraps fail its first Write,
// the segment's magic line, with err.
func (d *Disk) FailCreate(err error) {
	d.arm(opWrap, 1, func(*os.File, []byte) (int, error) { return 0, err })
}

// Syncs reports how many Sync calls the disk's files have had, failed
// and faulted ones included: what a test pins an operation's fsync cost
// with.
func (d *Disk) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls[opSync]
}

func (d *Disk) arm(op, n int, fn fault) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.faults == nil {
		d.faults = map[[2]int]fault{}
	}
	d.faults[[2]int{op, d.calls[op] + n}] = fn
}

// next counts one call of op and returns the fault armed for it, if any.
func (d *Disk) next(op int) fault {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calls[op]++
	return d.faults[[2]int{op, d.calls[op]}]
}

// file is a segment file behind the disk. It does not embed the
// *os.File: a promoted method (WriteString) would bypass the faults.
type file struct {
	f *os.File
	d *Disk
}

func (w *file) Write(p []byte) (int, error) {
	if fn := w.d.next(opWrite); fn != nil {
		return fn(w.f, p)
	}
	return w.f.Write(p)
}

func (w *file) Sync() error {
	if fn := w.d.next(opSync); fn != nil {
		_, err := fn(w.f, nil)
		return err
	}
	return w.f.Sync()
}

func (w *file) Close() error { return w.f.Close() }
