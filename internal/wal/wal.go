// Package wal is the durable ingestion layer under viralcastd: a
// segmented, append-only write-ahead log of cascade events. Every event
// the daemon acknowledges is first framed (length prefix + CRC-32, the
// same envelope discipline as the embeddings files), appended to the
// active segment, and fsynced — so a SIGKILL, OOM, or pulled plug
// between the daemon's periodic model flushes loses nothing that was
// acknowledged.
//
// Three design points carry the package:
//
//   - Group commit. A dedicated committer goroutine batches concurrent
//     Appends into a single write+fsync. Batching is fsync-paced —
//     while one fsync runs, the next batch accumulates, and a lone
//     appender waits only for its own fsync. Per-event fsync throughput
//     collapses at a few thousand events/s; group commit amortizes the
//     fsync across every concurrent producer.
//
//   - Crash recovery. Open replays every intact record of every segment
//     in sequence order and truncates each segment at its first bad
//     frame (torn header, short payload, CRC mismatch, undecodable
//     record — ScanSegment's rule) instead of failing: a torn tail is the expected signature of a crash mid
//     write, not an error. Appends after recovery go to a fresh
//     segment; recovered segments are never written again.
//
//   - Generation-tied compaction. Once the serving layer folds the live
//     cascades into a flushed model generation, Compact rewrites the
//     still-live state as a snapshot into a fresh segment and deletes
//     every older one, bounding the log to roughly one generation of
//     events.
package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"viralcast/internal/durable"
)

// ErrClosed is returned by Append and Compact after Close.
var ErrClosed = errors.New("wal: log is closed")

// syncBytes caps how many frame bytes a single commit batches before it
// stops gathering and fsyncs.
const syncBytes = 1 << 20

// Options tunes a Log; the zero value is a sane serving default.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it exceeds this
	// size. Default 64 MiB.
	MaxSegmentBytes int64
	// NoGroupCommit makes every Append write and fsync synchronously on
	// the caller's goroutine — the naive baseline. Durability is
	// identical; only throughput differs. Exists for benchmarks and
	// durability-equivalence tests.
	NoGroupCommit bool
	// Logf receives operational log lines (recovery, truncation,
	// compaction); nil discards them.
	Logf func(format string, args ...any)
	// WrapFile, when set, wraps each segment file the log creates; the
	// log writes, syncs and closes the segment only through the
	// wrapper. Nil uses the *os.File itself. Tests stand a failing or
	// stalling disk in with it (internal/wal/waltest).
	WrapFile func(*os.File) durable.File
}

// Stats is a snapshot of the log's counters, the source of the daemon's
// wal_* metrics.
type Stats struct {
	Appends         uint64 // records durably appended (acknowledged)
	Fsyncs          uint64 // fsyncs that made frames durable (commits, compaction snapshots)
	Bytes           uint64 // frame bytes written
	Replayed        uint64 // records replayed into the store at Open
	Compactions     uint64 // completed Compact passes
	TornTruncations uint64 // segments truncated at a torn tail during Open
	Segments        uint64 // segment files currently on disk
}

// appendReq is one AppendBatch call in flight to the committer.
type appendReq struct {
	frames  []byte
	records int
	done    chan error
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	dir string
	opt Options

	// mu guards the active segment's file state; the committer holds it
	// across each write+fsync and Compact holds it across the
	// rotate+snapshot+delete sequence.
	mu  sync.Mutex
	seg *SegmentWriter
	// failed is set on the first disk error and poisons the log: a
	// partial or unsynced write leaves a region later appends would
	// land *after*, and replay truncates at the first bad frame — so
	// continuing to acknowledge appends after a failure could lose
	// acknowledged data. A segment the log cannot create poisons it
	// too: every later append would need that segment. Fail-stop keeps
	// "acked implies recoverable" an invariant and Err truthful; the
	// operator recovers with a restart or by reopening the log (the
	// serving layer's degraded-mode reload).
	failed error
	// poison mirrors failed behind an atomic pointer so health probes
	// can ask "is this log dead?" without taking mu — which a stalled
	// fsync may hold for seconds.
	poison atomic.Pointer[error]

	// recBase maps each on-disk segment to the number of records (in
	// this instance's counting) that precede its first frame, and
	// totalRecs counts every record the instance has seen: replayed at
	// Open, appended since, and written by compaction snapshots. Both
	// guarded by mu; together they let a streaming reader convert a
	// cursor into a record index and compute replication lag.
	recBase   map[uint64]uint64
	totalRecs uint64

	// sendMu lets Close fence out new Appends without racing the ones
	// already enqueueing.
	sendMu sync.RWMutex
	closed bool

	reqCh     chan *appendReq
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error

	appends, fsyncs, bytes    atomic.Uint64
	replayed, compactions     atomic.Uint64
	tornTruncations, segments atomic.Uint64
}

// Open opens (creating if needed) the WAL in dir, replays every intact
// record through replay (nil skips replay), truncates torn tails, and
// starts the committer. Appends after Open go to a fresh segment.
func Open(dir string, opt Options, replay func(Event) error) (*Log, error) {
	if opt.MaxSegmentBytes <= 0 {
		opt.MaxSegmentBytes = 64 << 20
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:     dir,
		opt:     opt,
		recBase: make(map[uint64]uint64),
		reqCh:   make(chan *appendReq, 1024),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	var fn func(Cursor, Event) error
	if replay != nil {
		fn = func(_ Cursor, ev Event) error { return replay(ev) }
	}
	scans, err := ScanDir(dir, fn)
	if err != nil {
		return nil, err
	}
	nextSeq := uint64(1)
	for _, scan := range scans {
		l.recBase[scan.Seq] = l.totalRecs
		l.totalRecs += uint64(scan.Records)
		if scan.Torn {
			// The tail after the last intact frame is unreadable —
			// chop it so the segment verifies clean from here on. Only
			// a crash mid-write (or real bit rot) produces this.
			if err := os.Truncate(scan.Path, scan.GoodBytes); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", scan.Path, err)
			}
			l.tornTruncations.Add(1)
			opt.Logf("wal: %s: truncated torn tail at byte %d (%d intact records kept): %v",
				scan.Path, scan.GoodBytes, scan.Records, scan.TornErr)
		}
		nextSeq = scan.Seq + 1
	}
	l.replayed.Store(l.totalRecs)
	if len(scans) > 0 {
		if err := durable.SyncDir(dir); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		opt.Logf("wal: recovered %d records from %d segments in %s", l.totalRecs, len(scans), dir)
	}
	seg, err := CreateSegment(dir, nextSeq, opt.WrapFile)
	if err != nil {
		return nil, err
	}
	l.seg = seg
	l.recBase[nextSeq] = l.totalRecs
	l.segments.Store(uint64(len(scans) + 1))
	if !opt.NoGroupCommit {
		go l.commitLoop()
	} else {
		close(l.done)
	}
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:         l.appends.Load(),
		Fsyncs:          l.fsyncs.Load(),
		Bytes:           l.bytes.Load(),
		Replayed:        l.replayed.Load(),
		Compactions:     l.compactions.Load(),
		TornTruncations: l.tornTruncations.Load(),
		Segments:        l.segments.Load(),
	}
}

// Append durably logs one event: it returns only after the record has
// been written and fsynced (possibly sharing the fsync with concurrent
// appends). An error means the event is NOT durable and must not be
// acknowledged upstream.
func (l *Log) Append(ev Event) error {
	return l.AppendBatch([]Event{ev})
}

// AppendBatch durably logs a batch of events under a single commit.
func (l *Log) AppendBatch(evs []Event) error {
	return l.AppendBatchCtx(context.Background(), evs)
}

// AppendBatchCtx is AppendBatch bounded by ctx: if the commit has not
// completed by the time ctx is done (disk stall, committer backlog),
// it returns ctx.Err() and the caller must treat the batch as NOT
// durable. The write itself is not torn off — the committer will still
// finish it eventually — so a timed-out batch may turn out durable
// after all; that is the safe direction (a retry is absorbed by
// idempotent replay/dedup upstream, an unacknowledged loss is not).
// In NoGroupCommit mode the commit runs on the caller's goroutine and
// only the pre-commit wait honors ctx.
func (l *Log) AppendBatchCtx(ctx context.Context, evs []Event) error {
	if len(evs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var frames []byte
	for _, ev := range evs {
		frames = appendFrame(frames, appendEventPayload(nil, ev))
	}
	if l.opt.NoGroupCommit {
		l.sendMu.RLock()
		defer l.sendMu.RUnlock()
		if l.closed {
			return ErrClosed
		}
		req := appendReq{frames: frames, records: len(evs)}
		return l.commit([]*appendReq{&req})
	}
	req := &appendReq{frames: frames, records: len(evs), done: make(chan error, 1)}
	l.sendMu.RLock()
	if l.closed {
		l.sendMu.RUnlock()
		return ErrClosed
	}
	// Both the enqueue (the channel backs up behind a stalled commit)
	// and the ack wait are bounded by ctx.
	select {
	case l.reqCh <- req:
		l.sendMu.RUnlock()
	case <-ctx.Done():
		l.sendMu.RUnlock()
		return ctx.Err()
	}
	select {
	case err := <-req.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// commitLoop is the group-commit writer: it gathers queued appends into
// a batch, commits them under one fsync, and acknowledges the whole
// batch at once.
func (l *Log) commitLoop() {
	defer close(l.done)
	for {
		var first *appendReq
		select {
		case first = <-l.reqCh:
		case <-l.quit:
			l.drainAndCommit()
			return
		}
		batch := []*appendReq{first}
		size := len(first.frames)
		// Fsync-paced batching: take everything already queued.
	drain:
		for size < syncBytes {
			select {
			case r := <-l.reqCh:
				batch = append(batch, r)
				size += len(r.frames)
			default:
				break drain
			}
		}
		err := l.commit(batch)
		for _, r := range batch {
			r.done <- err
		}
	}
}

// drainAndCommit flushes whatever was enqueued before Close fenced the
// senders, so no Append is left waiting on a dead committer.
func (l *Log) drainAndCommit() {
	for {
		select {
		case r := <-l.reqCh:
			err := l.commit([]*appendReq{r})
			r.done <- err
		default:
			return
		}
	}
}

// commit writes a batch of frames to the active segment and fsyncs
// once, rotating first if the segment is full. A failed rotation,
// write or fsync poisons the log; a short write leaves a torn tail that
// recovery truncates. The batch is durable once the fsync returns,
// before any appender is acknowledged.
func (l *Log) commit(batch []*appendReq) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	var total int64
	for _, r := range batch {
		total += int64(len(r.frames))
	}
	if l.seg.size+total > l.opt.MaxSegmentBytes && l.seg.size > int64(len(segMagic)) {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	for _, r := range batch {
		if err := l.seg.Write(r.frames); err != nil {
			return l.failLocked(err)
		}
	}
	if err := l.seg.Sync(); err != nil {
		return l.failLocked(err)
	}
	l.fsyncs.Add(1)
	l.bytes.Add(uint64(total))
	for _, r := range batch {
		l.appends.Add(uint64(r.records))
		l.totalRecs += uint64(r.records)
	}
	return nil
}

// usableLocked reports whether the log can accept writes.
func (l *Log) usableLocked() error {
	if l.seg == nil {
		return ErrClosed
	}
	if l.failed != nil {
		return fmt.Errorf("wal: log disabled after earlier failure: %w", l.failed)
	}
	return nil
}

// failLocked poisons the log after a disk error and returns the error.
func (l *Log) failLocked(err error) error {
	l.failed = err
	l.poison.Store(&err)
	l.opt.Logf("wal: disabling log after failure: %v", err)
	return err
}

// Err reports the disk error that poisoned the log, or nil while the
// log is healthy. It never blocks — unlike Append, it stays responsive
// while a commit is stalled on a hung disk — so readiness probes can
// gate on it.
func (l *Log) Err() error {
	if p := l.poison.Load(); p != nil {
		return *p
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one. Every
// commit ended with an fsync, so the seal costs none; a failure (the
// next segment cannot be created) poisons the log, and a failed create
// leaves no file behind, so the reopen that recovers the log creates
// the same sequence number. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.seg.Seal(l.seg.seq + 1); err != nil {
		return l.failLocked(err)
	}
	l.recBase[l.seg.seq] = l.totalRecs
	l.segments.Add(1)
	return nil
}

// Compact bounds the log after the serving layer has folded the live
// cascades into a flushed model generation: it rotates to a fresh
// segment, writes the still-live state returned by snapshot into it as
// ordinary event records, fsyncs, and deletes every older segment. The
// snapshot callback runs under the log's write lock, after the rotate —
// so any event committed to a doomed segment is already visible to the
// snapshot (its store apply happens before its WAL commit), and any
// event not in the snapshot commits to the surviving segment. Replay
// after Compact reconstructs exactly the snapshot plus whatever was
// appended since.
func (l *Log) Compact(snapshot func() []Event) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	keepSeq := l.seg.seq
	evs := snapshot()
	var frames []byte
	for _, ev := range evs {
		frames = appendFrame(frames, appendEventPayload(nil, ev))
	}
	if len(frames) > 0 {
		if err := l.seg.Write(frames); err != nil {
			return 0, l.failLocked(fmt.Errorf("wal: compaction snapshot: %w", err))
		}
		if err := l.seg.Sync(); err != nil {
			return 0, l.failLocked(fmt.Errorf("wal: compaction snapshot: %w", err))
		}
		l.fsyncs.Add(1)
		l.bytes.Add(uint64(len(frames)))
		l.totalRecs += uint64(len(evs))
	}
	segs, err := ListSegments(l.dir)
	if err != nil {
		return 0, err
	}
	for _, si := range segs {
		if si.Seq >= keepSeq {
			continue
		}
		if err := os.Remove(si.Path); err != nil {
			return removed, fmt.Errorf("wal: compaction: %w", err)
		}
		delete(l.recBase, si.Seq)
		removed++
	}
	if removed > 0 {
		if err := durable.SyncDir(l.dir); err != nil {
			return removed, fmt.Errorf("wal: %w", err)
		}
	}
	l.segments.Store(uint64(len(segs) - removed))
	l.compactions.Add(1)
	l.opt.Logf("wal: compacted %d sealed segments (snapshot of %d events into segment %d)",
		removed, len(evs), keepSeq)
	return removed, nil
}

// Close fences out new appends, commits everything already enqueued,
// and closes the active segment, which fsyncs only bytes a failed
// commit left unsynced. Idempotent.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		l.sendMu.Lock()
		l.closed = true
		l.sendMu.Unlock()
		close(l.quit)
		<-l.done
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.seg != nil {
			l.closeErr = l.seg.Close()
			l.seg = nil
		}
	})
	return l.closeErr
}
