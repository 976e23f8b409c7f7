package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"viralcast/internal/durable"
	"viralcast/internal/wal"
)

// Follower states, as reported by Status and /readyz.
const (
	// StateBootstrapping: streaming the primary's log into a mirror
	// that has not yet completed a bootstrap; the local state is
	// incomplete and must not be served until it holds every record
	// the primary held when the stream opened.
	StateBootstrapping = "bootstrapping"
	// StateSyncing: connected (or reconnecting) and applying the
	// stream, but not yet caught up with the primary's tail.
	StateSyncing = "syncing"
	// StateCurrent: caught up — the primary acknowledged lag 0 on this
	// connection more recently than any new frame.
	StateCurrent = "current"
	// StateDiverged: the primary rejected our chain fingerprint. The
	// local state may be wrong; the follower stops serving, wipes its
	// mirror and re-bootstraps.
	StateDiverged = "diverged"
	// StateStopped: Stop was called (normally just before promotion).
	StateStopped = "stopped"
)

// Config configures a Follower.
type Config struct {
	// Primary is the primary's base URL, e.g. "http://10.0.0.1:8080".
	Primary string
	// Dir is the local mirror directory: the primary's WAL segments one
	// for one, byte-identical wherever the primary still holds them.
	// Promotion opens this directory as an ordinary WAL.
	Dir string
	// Apply ingests one replicated event into the local store. It must
	// absorb duplicates (the store's SI duplicate guard): compaction
	// snapshots and reconnect overlap both replay events that may
	// already be applied.
	Apply func(wal.Event) error
	// Reset clears the local store before a re-bootstrap; called only
	// when divergence, compaction or a damaged mirror forces one.
	Reset func()
	// Client issues the HTTP requests; nil uses a default with no
	// overall timeout (the stream is long-lived by design).
	Client *http.Client
	// BackoffMin/BackoffMax bound the jittered exponential reconnect
	// backoff. Defaults 100ms / 5s.
	BackoffMin, BackoffMax time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Status is a point-in-time view of the follower, feeding /readyz and
// the repl_* metrics.
type Status struct {
	State       string     `json:"state"`
	Servable    bool       `json:"servable"` // local state is a correct prefix; safe to serve reads
	Cursor      wal.Cursor `json:"cursor"`
	Fingerprint uint32     `json:"fingerprint"`
	LagRecords  uint64     `json:"lag_records"`
	LagSeconds  float64    `json:"lag_seconds"`
	Reconnects  uint64     `json:"reconnects"`
}

// Follower tails a primary's WAL stream into a local byte mirror and a
// local store. Create with New, run with Start, halt with Stop.
type Follower struct {
	cfg     Config
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	started atomic.Bool
	rng     *rand.Rand

	mu          sync.Mutex
	state       string
	servable    bool
	cur         wal.Cursor
	fp          uint32
	lagRecords  uint64
	lastAdvance time.Time
	reconnects  uint64

	// mirror is the byte-identical copy of the primary's segment the
	// tail loop appends verified frames to; nil (and cur zero) until
	// the first frame of a bootstrap names a segment. Only whole frames
	// are written, so the worst a crash leaves is a torn tail that
	// replayLocal truncates.
	mirror *wal.SegmentWriter
	// wrapFile wraps each segment file the follower writes; nil writes
	// the file itself. Tests stand a counting or failing disk in with
	// it (internal/wal/waltest).
	wrapFile func(*os.File) durable.File
}

// New builds a Follower; Start begins replication.
func New(cfg Config) (*Follower, error) {
	if cfg.Primary == "" || cfg.Dir == "" || cfg.Apply == nil {
		return nil, errors.New("repl: Config.Primary, Dir, and Apply are required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 100 * time.Millisecond
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Reset == nil {
		cfg.Reset = func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		state:  StateBootstrapping,
	}, nil
}

// Start launches the replication loop. Idempotent: only the first
// call spawns the loop.
func (f *Follower) Start() {
	if f.started.Swap(true) {
		return
	}
	go f.run()
}

// Stop halts replication and waits for any in-flight apply to finish;
// after Stop the mirror directory is quiescent and safe to open as a
// WAL (promotion). Safe before Start (a constructor error path tearing
// down a never-started follower must not block on a loop that never
// ran). Idempotent.
func (f *Follower) Stop() {
	f.cancel()
	if f.started.Load() {
		<-f.done
	}
}

// Status reports the follower's current replication state.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		State:       f.state,
		Servable:    f.servable,
		Cursor:      f.cur,
		Fingerprint: f.fp,
		LagRecords:  f.lagRecords,
		Reconnects:  f.reconnects,
	}
	if f.lagRecords > 0 && !f.lastAdvance.IsZero() {
		st.LagSeconds = time.Since(f.lastAdvance).Seconds()
	}
	return st
}

func (f *Follower) setState(state string, servable bool) {
	f.mu.Lock()
	f.state = state
	f.servable = servable
	f.mu.Unlock()
}

func (f *Follower) setCursor(cur wal.Cursor, fp uint32) {
	f.mu.Lock()
	f.cur = cur
	f.fp = fp
	f.mu.Unlock()
}

func (f *Follower) setLag(lag uint64) {
	f.mu.Lock()
	f.lagRecords = lag
	f.lastAdvance = time.Now()
	f.mu.Unlock()
}

// run is the replication loop: resume a mirror a previous run left
// behind, then stream forever with jittered exponential backoff between
// connection attempts. A follower with no mirror bootstraps through the
// same stream.
func (f *Follower) run() {
	defer close(f.done)
	defer func() {
		if f.mirror != nil {
			if err := f.mirror.Close(); err != nil {
				f.cfg.Logf("repl: closing mirror: %v", err)
			}
			f.mirror = nil
		}
		f.setState(StateStopped, f.servableNow())
	}()

	if err := f.replayLocal(); err != nil {
		f.cfg.Logf("repl: local mirror replay failed (%v); bootstrapping from the primary", err)
		f.invalidate(StateBootstrapping)
	}
	attempt := 0
	for f.ctx.Err() == nil {
		bootstrapping := !f.servableNow()
		err := f.tail()
		if f.ctx.Err() != nil {
			return
		}
		if bootstrapping && f.servableNow() {
			attempt = 0 // a completed bootstrap starts the backoff afresh
		}
		f.mu.Lock()
		f.reconnects++
		f.mu.Unlock()
		switch {
		case errors.Is(err, errDiverged):
			// Our history is not a prefix of the primary's. Refuse to
			// serve, wipe everything, re-bootstrap.
			f.cfg.Logf("repl: DIVERGED from primary: %v — refusing to serve until re-bootstrapped", err)
			f.invalidate(StateDiverged)
		case errors.Is(err, errCompacted):
			// The primary compacted past our cursor; our state is a
			// correct prefix but the log to extend it is gone. Rebuild
			// from the primary's oldest surviving segment.
			f.cfg.Logf("repl: primary compacted past our cursor; re-bootstrapping")
			f.invalidate(StateBootstrapping)
		default:
			if f.servableNow() {
				f.setState(StateSyncing, true)
			}
			f.cfg.Logf("repl: stream to %s interrupted: %v (reconnecting)", f.cfg.Primary, err)
		}
		f.sleepBackoff(&attempt)
	}
}

func (f *Follower) servableNow() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.servable
}

// invalidate discards the local mirror and store and enters state, so
// the next stream re-bootstraps from the primary's oldest segment. The
// follower is not servable again until that bootstrap has caught up.
func (f *Follower) invalidate(state string) {
	if f.mirror != nil {
		f.mirror.Close()
		f.mirror = nil
	}
	f.setCursor(wal.Cursor{}, 0)
	f.setState(state, false)
	// The marker goes before the segments it vouches for, so no crash
	// leaves it beside a partial re-bootstrap.
	if err := clearBootstrapped(f.cfg.Dir); err != nil {
		f.cfg.Logf("repl: clearing bootstrap marker: %v", err)
	}
	if err := wipeSegments(f.cfg.Dir); err != nil {
		f.cfg.Logf("repl: wiping mirror: %v", err)
	}
	f.cfg.Reset()
}

// wipeSegments removes every WAL segment file under dir (a re-bootstrap
// discards all mirrored history); a missing dir has none. Non-segment
// files are untouched.
func wipeSegments(dir string) error {
	segs, err := wal.ListSegments(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, si := range segs {
		if err := os.Remove(si.Path); err != nil {
			return fmt.Errorf("repl: %w", err)
		}
	}
	return nil
}

// bootstrappedFile, present in the mirror directory, records that the
// mirror once held every record its primary held when a bootstrap
// stream opened. A mirror without it is a partial bootstrap — possibly
// cut inside a compaction snapshot, a state the primary never held —
// so a restarted follower serves its mirror only when the marker is
// there.
const bootstrappedFile = "BOOTSTRAPPED"

// markBootstrapped makes the mirror durable and then the marker, so the
// marker never vouches for frames a power loss could take back.
func (f *Follower) markBootstrapped() error {
	if f.mirror != nil {
		if err := f.mirror.Sync(); err != nil {
			return err
		}
	}
	if err := durable.WriteFile(filepath.Join(f.cfg.Dir, bootstrappedFile), nil, 0o644); err != nil {
		return fmt.Errorf("repl: %w", err)
	}
	return nil
}

// clearBootstrapped durably removes the bootstrap marker; a missing
// marker is already clear.
func clearBootstrapped(dir string) error {
	err := os.Remove(filepath.Join(dir, bootstrappedFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("repl: %w", err)
	}
	return durable.SyncDir(dir)
}

// sleepBackoff sleeps the jittered exponential backoff for the given
// attempt number (full jitter on the upper half: d/2 + rand[0,d/2)),
// bounded by ctx.
func (f *Follower) sleepBackoff(attempt *int) {
	d := f.cfg.BackoffMin << *attempt
	if d > f.cfg.BackoffMax || d <= 0 {
		d = f.cfg.BackoffMax
	} else {
		*attempt++
	}
	d = d/2 + time.Duration(f.rng.Int63n(int64(d/2)+1))
	select {
	case <-f.ctx.Done():
	case <-time.After(d):
	}
}

// replayLocal rebuilds the store from a mirror a previous run left
// behind (a follower restart), reading each segment once: every intact
// record goes through Apply, the mirror reopens at the intact end the
// scan reports (truncating the last segment's torn tail, a crash
// mid-append), and the cursor/fingerprint resume from there. The
// follower serves the replayed state only if the bootstrap marker says
// the mirror completed a bootstrap; otherwise it resumes the bootstrap
// unservable. A torn tail in any non-final segment, or a last segment
// shorter than its magic line, means the mirror is damaged beyond local
// repair — the caller wipes it and bootstraps. With no mirror there is
// nothing to replay, and a marker left beside none vouches for nothing.
func (f *Follower) replayLocal() error {
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("repl: %w", err)
	}
	scans, err := wal.ScanDir(f.cfg.Dir, func(_ wal.Cursor, ev wal.Event) error { return f.cfg.Apply(ev) })
	if err != nil {
		return err
	}
	if len(scans) == 0 {
		return clearBootstrapped(f.cfg.Dir)
	}
	applied := 0
	for i, scan := range scans {
		applied += scan.Records
		if !scan.Torn {
			continue
		}
		if i != len(scans)-1 {
			return fmt.Errorf("segment %d has a torn tail but is not the last segment", scan.Seq)
		}
		if scan.GoodBytes < wal.SegmentHeaderLen {
			return fmt.Errorf("segment %d is shorter than its magic line", scan.Seq)
		}
		f.cfg.Logf("repl: truncating torn mirror tail of segment %d at byte %d", scan.Seq, scan.GoodBytes)
	}
	last := scans[len(scans)-1]
	m, err := wal.OpenSegment(f.cfg.Dir, last.Seq, last.GoodBytes, f.wrapFile)
	if err != nil {
		return err
	}
	f.mirror = m
	cur := wal.Cursor{Seg: last.Seq, Off: last.GoodBytes}
	f.setCursor(cur, last.Chain)
	_, err = os.Stat(filepath.Join(f.cfg.Dir, bootstrappedFile))
	switch {
	case err == nil:
		f.setState(StateSyncing, true)
	case errors.Is(err, fs.ErrNotExist):
		f.setState(StateBootstrapping, false)
		f.cfg.Logf("repl: local mirror is a partial bootstrap; resuming it unservable")
	default:
		return fmt.Errorf("repl: %w", err)
	}
	f.cfg.Logf("repl: resumed local mirror at %v (%d records replayed)", cur, applied)
	return nil
}

// Sentinel classifications of a broken tail connection.
var (
	errDiverged  = errors.New("repl: diverged")
	errCompacted = errors.New("repl: compacted")
)

// tail opens the stream at the current cursor — seg=0, the primary's
// whole log, while there is no mirror — and applies items until the
// connection breaks or the context is canceled. The returned error
// classifies the break: errDiverged and errCompacted force a
// re-bootstrap, anything else is a plain reconnect.
func (f *Follower) tail() error {
	f.mu.Lock()
	cur, fp := f.cur, f.fp
	f.mu.Unlock()
	url := fmt.Sprintf("%s%s?seg=%d&off=%d&fp=%08x", f.cfg.Primary, StreamPath, cur.Seg, cur.Off, fp)
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w: %s", errDiverged, body)
	case http.StatusGone:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w: %s", errCompacted, body)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("stream: primary answered %d: %s", resp.StatusCode, body)
	}

	// A follower that is not servable becomes servable once it has
	// applied every record the primary held when this stream opened:
	// need counts those still to come — the first item's lag, less each
	// frame after it, and never more than the current lag (which drops
	// past records a compaction jump skips). The bootstrap marker is
	// made durable first, so a restart serves only a completed mirror.
	servable := f.servableNow()
	if !servable {
		f.setState(StateBootstrapping, false)
	}
	need := uint64(math.MaxUint64)
	for {
		it, err := readItem(resp.Body)
		if err != nil {
			if f.ctx.Err() != nil {
				return f.ctx.Err()
			}
			if err == io.EOF {
				return errors.New("primary closed the stream")
			}
			return err
		}
		if it.typ == itemFrame {
			if err := f.applyFrame(it); err != nil {
				return err
			}
		}
		f.setLag(it.lag)
		wasServable := servable
		if !servable {
			if it.typ == itemFrame {
				need-- // never 0 here: need 0 made the follower servable
			}
			need = min(need, it.lag)
			if servable = need == 0; servable {
				if err := f.markBootstrapped(); err != nil {
					return err
				}
			}
		}
		switch {
		case it.typ == itemHeartbeat && it.lag == 0:
			// Caught up also means durable locally; an idle
			// follower's heartbeats find nothing to sync.
			if f.mirror != nil {
				if err := f.mirror.Sync(); err != nil {
					return err
				}
			}
			f.setState(StateCurrent, true)
		case servable && (!wasServable || it.lag > 0):
			f.setState(StateSyncing, true)
		}
	}
}

// applyFrame verifies and applies one streamed frame item: check the
// frame's own CRC, decode the event, append the frame bytes to the
// byte mirror at the expected position, fold the chain fingerprint,
// and apply the event to the store. Overlapping frames (positions the
// mirror already holds — the primary re-sent history after our torn
// tail was truncated, or a reconnect raced) are applied to the store
// (SI-dedup absorbs) but not re-appended to the mirror.
func (f *Follower) applyFrame(it streamItem) error {
	payload, ev, err := it.verify()
	if err != nil {
		return err
	}
	f.mu.Lock()
	cur, fp := f.cur, f.fp
	f.mu.Unlock()
	switch {
	case it.seg == cur.Seg && it.off == cur.Off:
		if err := f.mirror.Write(it.frame); err != nil {
			return err
		}
		fp = wal.ChainUpdate(fp, payload)
		cur.Off += int64(len(it.frame))
		f.setCursor(cur, fp)
	case it.seg == cur.Seg && it.off < cur.Off:
		// Overlap: the mirror already has these bytes; only the store
		// apply below matters (and dedup usually absorbs even that).
	case it.seg > cur.Seg && it.off == wal.SegmentHeaderLen:
		// The first frame of a segment the mirror does not hold: a
		// rotation or compaction jump on the primary, or the first
		// segment of a bootstrap (cur is zero while there is no mirror).
		if f.mirror == nil {
			m, err := wal.CreateSegment(f.cfg.Dir, it.seg, f.wrapFile)
			if err != nil {
				return err
			}
			f.mirror = m
		} else if err := f.mirror.Seal(it.seg); err != nil {
			return err
		}
		if err := f.mirror.Write(it.frame); err != nil {
			return err
		}
		fp = wal.ChainUpdate(wal.ChainSeed(it.seg), payload)
		cur = wal.Cursor{Seg: it.seg, Off: wal.SegmentHeaderLen + int64(len(it.frame))}
		f.setCursor(cur, fp)
	default:
		return fmt.Errorf("stream gap: item at %d:%d but mirror ends at %v", it.seg, it.off, cur)
	}
	if err := f.cfg.Apply(ev); err != nil {
		return fmt.Errorf("applying replicated event: %w", err)
	}
	return nil
}
