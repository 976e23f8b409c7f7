// Package serve is viralcastd: a long-running HTTP daemon that serves a
// fitted viralcast model online. It ingests cascade events as they
// stream in (POST /v1/events), answers early-virality predictions for
// live cascades in milliseconds (GET /v1/cascades/{id}/predict), and
// exposes the model's inference surface (pairwise rates, influencer
// rankings, seed selection) behind a TTL cache with singleflight
// deduplication. The model is held behind an atomic pointer: hot reloads
// (SIGHUP, POST /v1/reload) and the periodic online refit (a flush:
// System.Update over the loaded corpus and the live cascades, warm-started
// from the serving model) swap in a fresh generation without dropping
// in-flight requests. /healthz, /readyz, and an expvar-backed
// /metrics make it operable. With Config.WALDir set, ingestion is
// durable: acknowledged events are group-committed to a write-ahead
// log (internal/wal) before the response goes out, startup replays the
// log back into the live store, and each model flush compacts the log
// down to the still-live state.
//
// The daemon is designed to degrade, not collapse, under hostile
// conditions: per-route-class admission control sheds excess load with
// 429 + Retry-After instead of queueing unboundedly (admission.go), a
// per-request deadline is threaded as a context through the expensive
// compute paths so no request burns CPU past its budget, and a
// fail-stopped WAL flips the daemon into an explicit read-only degraded
// state — predictions keep serving, ingestion 503s with a
// machine-readable cause, and POST /v1/reload (or a restart) recovers
// (health.go).
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/httpkit"
	"viralcast/internal/repl"
	"viralcast/internal/wal"
)

// Config configures a Server. Loader is required; everything else has a
// serving-friendly default.
type Config struct {
	// Loader produces the initial model and every reloaded generation.
	Loader Loader
	// FlushEvery is the cadence of the background pass that refits the
	// model over the loaded corpus and the live cascades (System.Update)
	// and swaps the refit in; a pass with no event since the last one,
	// or under a model loaded without its corpus, does nothing. Zero
	// disables the periodic pass (Flush can still be called).
	FlushEvery time.Duration
	// DrainTimeout bounds how long Serve waits for in-flight requests
	// after its context is canceled. Default 10s.
	DrainTimeout time.Duration
	// WALDir enables durable ingestion: every acknowledged event is
	// group-committed to a write-ahead log under this directory before
	// the POST /v1/events response is sent, and on startup the log is
	// replayed into the store — so a crash between model flushes loses
	// nothing acknowledged. Empty disables the WAL: live cascades are
	// memory-only.
	WALDir string
	// FollowURL makes this daemon a replication follower of the primary
	// at that base URL (e.g. "http://primary:8080"): instead of opening
	// the WAL for writes, it streams the primary's WAL segments, from
	// its oldest one on, into a local byte mirror under WALDir, and
	// serves the read/compute data plane from its own model generation
	// once it holds every record the primary held when it connected.
	// Ingestion answers 409 with a machine-readable primary hint.
	// Requires WALDir (the mirror is what promotion opens as a WAL) and
	// a primary running the same build. Empty (the default) runs as a
	// primary.
	FollowURL string
	// ReplBackoffMin/Max bound the follower's jittered exponential
	// reconnect backoff. Zero uses the repl package defaults.
	ReplBackoffMin, ReplBackoffMax time.Duration
	// RequestTimeout is the per-request budget for the data-plane
	// endpoints (/v1 reads, compute, ingestion): middleware installs it
	// as a context deadline, the compute paths honor it with periodic
	// cancellation checks, and a request that exceeds it answers 503
	// instead of burning CPU for a client that has stopped waiting.
	// Control-plane endpoints (reload, flush, health, metrics) are
	// exempt — a retrain legitimately outlives any request budget.
	// 0 disables the deadline.
	RequestTimeout time.Duration
	// Admission bounds the compute class's concurrency; see
	// AdmissionConfig. The zero value enables generous defaults.
	Admission AdmissionConfig
	// ShardID/RingSize make this daemon one member of a sharded fleet
	// behind a `viralcast route` front-end: RingSize is the fleet size
	// and ShardID this member's index in [0, RingSize). A sharded
	// member answers the row-decomposable global queries
	// (/v1/influencers) for its own contiguous node stripe
	// [ShardID·N/RingSize, (ShardID+1)·N/RingSize) — the router merges
	// the per-shard stripe rankings back into the byte-identical global
	// answer — and reports shard_id/ring_size on /readyz and /metrics
	// so the router can detect a misconfigured ring member. RingSize 0
	// (the default) is an ordinary unsharded daemon: full-universe
	// answers, shard_id -1. Non-decomposable compute (seed selection,
	// scenario simulation) always runs over the full model; the router
	// treats those as replicated rather than partitioned work.
	ShardID  int
	RingSize int
	// EnablePprof exposes net/http/pprof under /debug/pprof/ on the
	// control plane — ungated by admission control and request budgets
	// (like /metrics), so a live daemon can be profiled even while it is
	// shedding load. Off by default: profiles expose internals and cost
	// CPU, so production exposure is an explicit decision.
	EnablePprof bool
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)

	// walOpts is the test seam under the write-ahead log: a fake disk
	// (WrapFile) or a small segment size (MaxSegmentBytes). The zero
	// value is the production log: files written directly, 64 MiB
	// segments.
	walOpts wal.Options
}

// The daemon's tuning constants.
const (
	// cacheTTL paces the sweep of the cached expensive endpoints
	// (influencers, seeds, simulate). Every cached key embeds the model
	// generation, so a reload or flush invalidates them regardless.
	cacheTTL = 5 * time.Second
	// batchMax caps how many items one batched data-plane request
	// (POST /v1/predict:batch, /v1/rate:batch, /v1/features:batch) may
	// carry; bigger batches answer 400 naming the cap so clients split
	// instead of monopolizing an admission slot. One batch request holds
	// one compute ticket however many items it carries — the cap is what
	// keeps that amortization from turning into starvation.
	batchMax = 1024
	// simulateMaxTrials caps the total Monte Carlo trials (trials × seed
	// sets) one POST /v1/simulate request may ask for; bigger requests
	// answer 400 naming the cap so clients can split or shrink the
	// question.
	simulateMaxTrials = 4096
)

// model is one immutable serving generation; the Server's atomic pointer
// swaps between these. absorbed is the store's change count its refit
// saw, 0 for a loaded generation: a flush refits only when the count
// has moved since.
type model struct {
	sys      *LoadedModel
	gen      uint64
	swapped  time.Time
	absorbed uint64
}

// Server is the daemon state. Create with New, wire into an HTTP server
// via Handler, or run the full lifecycle with Listen + Serve.
type Server struct {
	cfg       Config
	cur       atomic.Pointer[model]
	gen       atomic.Uint64
	store     *Store
	cache     *httpkit.Cache
	metrics   *Metrics
	admission *admission
	health    healthState

	// wal is the durable ingestion log, nil unless Config.WALDir is
	// set. Ingest handlers append to it before acknowledging; Flush
	// compacts it after each generation swap. It is an atomic pointer
	// because degraded-mode recovery (Reload on a poisoned log) swaps
	// in a freshly reopened log under live traffic.
	wal         atomic.Pointer[wal.Log]
	walReplayed atomic.Uint64
	walSkipped  atomic.Uint64

	// follower is the replication tailer, non-nil only when the daemon
	// was started with Config.FollowURL. followerActive flips false at
	// promotion: the daemon's role is "follower" exactly while it is
	// true.
	follower       *repl.Follower
	followerActive atomic.Bool

	// epoch mirrors the fencing epoch persisted next to the WAL
	// (wal.ReadEpoch/WriteEpoch): bumped on every promotion, before the
	// role flips. fencedBy latches the highest foreign epoch this node
	// has ever seen on a request or probe; the node is fenced exactly
	// while fencedBy > epoch — a newer promotion happened somewhere that
	// this node's history does not include, so accepting writes here
	// would be split-brain. Both are plain atomics: the gate reads them
	// on the hot path, promotion updates them under the generation lock.
	epoch    atomic.Uint64
	fencedBy atomic.Uint64

	// reloadCh serializes generation swaps (reload and flush) without
	// blocking request handlers: a buffered-channel mutex.
	reloadCh chan struct{}

	// update refits a flush's fork and selectSeeds answers /v1/seeds:
	// (*core.System).Update and SelectSeedsCtx, which tests replace to
	// fail a refit or stall a selection.
	update      func(*core.System, []*cascade.Cascade) error
	selectSeeds func(*core.System, context.Context, int, float64) ([]core.Seed, error)
	// newHTTPServer builds the http.Server Serve runs the handler on:
	// httpkit.NewServer, which tests replace to shorten its timeouts.
	newHTTPServer func(http.Handler) *http.Server

	ln      net.Listener
	handler http.Handler
}

// New builds a Server and performs the initial model load; a broken
// model file fails fast here rather than at first request.
func New(cfg Config) (*Server, error) {
	if cfg.Loader == nil {
		return nil, fmt.Errorf("serve: Config.Loader is required")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.RingSize < 0 {
		return nil, fmt.Errorf("serve: Config.RingSize must be >= 0, got %d", cfg.RingSize)
	}
	if cfg.RingSize > 0 && (cfg.ShardID < 0 || cfg.ShardID >= cfg.RingSize) {
		return nil, fmt.Errorf("serve: Config.ShardID %d outside ring [0, %d)", cfg.ShardID, cfg.RingSize)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:           cfg,
		store:         NewStore(),
		cache:         httpkit.NewCache(cacheTTL, time.Now),
		admission:     newAdmission(cfg.Admission),
		reloadCh:      make(chan struct{}, 1),
		update:        (*core.System).Update,
		selectSeeds:   (*core.System).SelectSeedsCtx,
		newHTTPServer: httpkit.NewServer,
	}
	switch {
	case cfg.FollowURL != "":
		// Replication follower: the WAL directory is the byte mirror of
		// the primary's log, tailed by the repl layer and opened for
		// writes only at promotion. Ingestion is role-gated (409) until
		// then.
		if cfg.WALDir == "" {
			return nil, fmt.Errorf("serve: Config.FollowURL requires Config.WALDir (the replication mirror directory)")
		}
		f, err := repl.New(repl.Config{
			Primary:    cfg.FollowURL,
			Dir:        cfg.WALDir,
			Apply:      s.applyReplicated,
			Reset:      s.store.Clear,
			BackoffMin: cfg.ReplBackoffMin,
			BackoffMax: cfg.ReplBackoffMax,
			Logf:       cfg.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.follower = f
		s.followerActive.Store(true)
	case cfg.WALDir != "":
		w, err := s.openWAL()
		if err != nil {
			return nil, fmt.Errorf("serve: opening WAL: %w", err)
		}
		s.wal.Store(w)
		cfg.Logf("serve: WAL %s: replayed %d events into %d live cascades (%d duplicates skipped)",
			cfg.WALDir, s.walReplayed.Load(), s.store.Len(), s.walSkipped.Load())
	}
	if cfg.WALDir != "" {
		// The fencing epoch survives restarts with the log it guards. A
		// corrupt epoch file fails startup: defaulting to 0 would let a
		// fenced zombie forget it was fenced.
		e, err := wal.ReadEpoch(cfg.WALDir)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.epoch.Store(e)
	}
	s.metrics = newMetrics(metricsHooks{
		liveCascades: s.store.Len,
		generation:   s.Generation,
		walStats:     s.walStats,
		admission:    s.admission.snapshot,
		health:       s.healthSnapshot,
		replStatus:   s.replStatus,
		isFollower:   s.isFollower,
		epoch:        s.Epoch,
		fencing:      s.fencingEpoch,
		shardID:      s.ShardID(),
		ringSize:     s.RingSize(),
	})
	lm, err := cfg.Loader()
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("serve: initial model load: %w", err)
	}
	s.swap(lm, 0)
	s.handler = s.routes()
	if s.follower != nil {
		// Start tailing only once the model is loaded and the handler
		// tree exists: replicated events land in a fully wired server.
		s.follower.Start()
		cfg.Logf("serve: following %s (mirror %s)", cfg.FollowURL, cfg.WALDir)
	}
	return s, nil
}

// applyReplicated ingests one replicated event into the local store;
// a reject is an absorbed duplicate — compaction snapshots and
// reconnect overlap legitimately replay events already applied.
// Node-universe bounds are not re-checked, same as WAL replay: the
// primary validated the event when it was first acknowledged.
func (s *Server) applyReplicated(ev Event) error {
	s.store.Append(ev, maxInt) //nolint:errcheck // a reject is a replayed duplicate
	return nil
}

// isFollower reports whether the daemon currently runs in the follower
// role (started with FollowURL and not yet promoted).
func (s *Server) isFollower() bool { return s.followerActive.Load() }

// replStatus returns the follower's replication status and whether
// this daemon ever had a follower (for metrics; the status outlives
// promotion so lag/reconnect counters do not vanish from dashboards).
func (s *Server) replStatus() (repl.Status, bool) {
	if s.follower == nil {
		return repl.Status{}, false
	}
	return s.follower.Status(), true
}

// ErrFenced rejects an operation that would move the fencing fence
// backwards: a promote carrying an epoch at or below the persisted
// one, any write on a node that has observed a higher epoch than its
// own. Handlers map it to 409 {"reason":"fenced"}.
var ErrFenced = errors.New("fenced: a newer fencing epoch exists")

// Epoch returns the persisted fencing epoch (0 before any promotion).
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// fencingEpoch returns the highest foreign epoch this node has
// observed, and whether that fences it (foreign > own).
func (s *Server) fencingEpoch() (uint64, bool) {
	by := s.fencedBy.Load()
	return by, by > s.epoch.Load()
}

// observeEpoch latches a foreign epoch seen on a request or probe. The
// latch is one-way and monotonic: once this node has proof that a
// newer promotion exists, only a promotion of its own past that epoch
// un-fences it.
func (s *Server) observeEpoch(remote uint64) {
	for {
		cur := s.fencedBy.Load()
		if remote <= cur || s.fencedBy.CompareAndSwap(cur, remote) {
			return
		}
	}
}

// Promote flips a follower into a primary without a restart: persist a
// strictly larger fencing epoch (CRC-signed, fsynced — split-brain
// insurance before anything else changes), stop the tailer (waiting
// out any in-flight apply), open the byte mirror as an ordinary
// write-ahead log — replay is a no-op store-wise, the SI duplicate
// guard absorbs every already-applied event — and only then flip the
// role so ingestion starts acknowledging durably.
//
// epoch 0 asks for an automatic bump (persisted+1) — but is refused
// with ErrFenced on a node that has observed a higher epoch elsewhere:
// resurrecting a fenced node must be an explicit supervisor decision
// carrying an epoch above the fence. A non-zero epoch must be strictly
// above both the persisted epoch and any observed fence.
//
// Promoting a node that is already a primary is idempotent (promoted
// false) when no epoch advance is requested; with an epoch above the
// persisted one it persists the advance — so a supervisor's retried
// promote converges instead of erroring.
func (s *Server) Promote(epoch uint64) (promoted bool, err error) {
	defer s.lockGenerations()()
	if s.cfg.WALDir == "" {
		if s.isFollower() {
			return false, fmt.Errorf("serve: promote: follower has no WAL directory")
		}
		return false, nil
	}
	target := epoch
	if target == 0 {
		target = s.epoch.Load() + 1
	}
	if target <= s.epoch.Load() {
		return false, fmt.Errorf("serve: promote epoch %d is not above the persisted epoch %d: %w",
			target, s.epoch.Load(), ErrFenced)
	}
	if by, fenced := s.fencingEpoch(); fenced && target <= by {
		return false, fmt.Errorf("serve: promote epoch %d does not clear the observed fencing epoch %d: %w",
			target, by, ErrFenced)
	}
	if !s.isFollower() {
		if epoch == 0 {
			return false, nil
		}
		// Already primary, explicit higher epoch: a supervisor retry or
		// fence advance. Persist it so the node reports the new epoch.
		if err := wal.WriteEpoch(s.cfg.WALDir, target); err != nil {
			return false, fmt.Errorf("serve: promote: %w", err)
		}
		s.epoch.Store(target)
		s.cfg.Logf("serve: fencing epoch advanced to %d (already primary)", target)
		return false, nil
	}
	if err := wal.WriteEpoch(s.cfg.WALDir, target); err != nil {
		return false, fmt.Errorf("serve: promote: %w", err)
	}
	s.epoch.Store(target)
	s.follower.Stop()
	w, err := s.openWAL()
	if err != nil {
		// The tailer is stopped and the WAL did not open: the node is
		// stuck read-only. Surface the error; the operator retries
		// promotion or restarts. The epoch bump stands — it fences
		// nobody but this node's own past.
		return false, fmt.Errorf("serve: promote: opening mirror as WAL: %w", err)
	}
	s.wal.Store(w)
	s.followerActive.Store(false)
	s.metrics.promotions.Add(1)
	s.cfg.Logf("serve: PROMOTED to primary at epoch %d (mirror %s now the write-ahead log, %d events replayed, %d duplicates absorbed)",
		target, s.cfg.WALDir, s.walReplayed.Load(), s.walSkipped.Load())
	return true, nil
}

// maxInt disables node-universe bounds on replay: logged events were
// validated against the model that was live when they were acknowledged.
const maxInt = int(^uint(0) >> 1)

// openWAL opens (or reopens) the configured WAL directory, replaying
// every intact record back into the store. Replay is idempotent —
// compaction snapshots overlap post-snapshot appends, and the SI
// duplicate guard drops the overlap — so per-event rejects are
// bookkeeping, not errors. Node-universe bounds are not re-checked:
// the log only ever holds events that passed validation when first
// acknowledged. The same property makes degraded-mode recovery safe:
// reopening over a poisoned log replays everything already applied
// into the live store and the duplicate guard absorbs it all.
func (s *Server) openWAL() (*wal.Log, error) {
	opts := s.cfg.walOpts
	opts.Logf = s.cfg.Logf
	return wal.Open(s.cfg.WALDir, opts, func(ev Event) error {
		if _, err := s.store.Append(ev, maxInt); err != nil {
			s.walSkipped.Add(1)
			return nil
		}
		s.walReplayed.Add(1)
		return nil
	})
}

// walLog returns the live WAL, nil when durable ingestion is disabled.
func (s *Server) walLog() *wal.Log { return s.wal.Load() }

// walStats feeds the wal_* metrics; all-zero when the WAL is disabled.
func (s *Server) walStats() (wal.Stats, bool) {
	w := s.walLog()
	if w == nil {
		return wal.Stats{}, false
	}
	st := w.Stats()
	st.Replayed = s.walReplayed.Load()
	return st, true
}

// Close stops the replication tailer (if any) and releases the WAL
// (committing anything still queued). It does not stop an in-flight
// Serve — Serve calls it itself after the final flush. Callers
// embedding Handler directly (tests, custom servers) should Close when
// done. Idempotent.
func (s *Server) Close() error {
	if s.follower != nil {
		s.follower.Stop()
	}
	w := s.walLog()
	if w == nil {
		return nil
	}
	return w.Close()
}

// ShardID reports this daemon's index in the serving ring, -1 when
// unsharded. The -1 convention (rather than 0) keeps "first shard of a
// fleet" and "not a fleet member at all" distinguishable in /readyz,
// /metrics, and the per-prediction shard_id field.
func (s *Server) ShardID() int {
	if s.cfg.RingSize > 0 {
		return s.cfg.ShardID
	}
	return -1
}

// RingSize reports the configured fleet size, 0 when unsharded.
func (s *Server) RingSize() int { return s.cfg.RingSize }

// stripe returns this shard's contiguous node-ownership range [lo, hi)
// over an n-node universe — the same fixed-size partition the compute
// plane uses for worker stripes, so the router's merged ranking is
// byte-identical to a single process ranking all n rows. Unsharded
// daemons own everything.
func (s *Server) stripe(n int) (lo, hi int) {
	if s.cfg.RingSize <= 0 {
		return 0, n
	}
	return s.cfg.ShardID * n / s.cfg.RingSize, (s.cfg.ShardID + 1) * n / s.cfg.RingSize
}

// current returns the live generation. It is never nil after New.
func (s *Server) current() *model { return s.cur.Load() }

// Generation returns the monotonically increasing model generation;
// every reload and every refining flush bumps it.
func (s *Server) Generation() uint64 { return s.gen.Load() }

// swap publishes lm, which has absorbed the store up to change count
// absorbed, as the next generation.
func (s *Server) swap(lm *LoadedModel, absorbed uint64) uint64 {
	gen := s.gen.Add(1)
	s.cur.Store(&model{sys: lm, gen: gen, swapped: time.Now(), absorbed: absorbed})
	return gen
}

// lockGenerations serializes reload/flush; returns an unlock func.
func (s *Server) lockGenerations() func() {
	s.reloadCh <- struct{}{}
	return func() { <-s.reloadCh }
}

// Reload re-invokes the Loader and atomically swaps the fresh model in.
// In-flight requests keep the generation they started with; a failed
// load leaves the current generation serving (zero downtime either way).
// Reload is also the supervised recovery path out of degraded mode: if
// the WAL has fail-stopped, a successful model reload then reopens the
// log — replaying it into the live store, where the duplicate guard
// absorbs everything already applied — and ingestion leaves read-only.
func (s *Server) Reload() (uint64, error) {
	defer s.lockGenerations()()
	lm, err := s.cfg.Loader()
	if err != nil {
		return s.Generation(), fmt.Errorf("serve: reload: %w", err)
	}
	gen := s.swap(lm, 0)
	s.metrics.reloads.Add(1)
	s.clearStale()
	s.cfg.Logf("serve: reloaded model (generation %d, %d nodes)", gen, lm.Sys.N)
	if err := s.recoverWAL(); err != nil {
		return gen, fmt.Errorf("serve: model reloaded (generation %d) but WAL recovery failed, still read-only: %w", gen, err)
	}
	return gen, nil
}

// recoverWAL reopens a poisoned write-ahead log. Called with the
// generation lock held (from Reload), so it never races a flush
// compaction. A healthy or absent log is a no-op.
func (s *Server) recoverWAL() error {
	old := s.walLog()
	if old == nil || old.Err() == nil {
		return nil
	}
	// Seal what the dead log can still sync; a close error here is
	// expected (the disk already failed once) and not fatal to
	// recovery — replay truncates whatever tail did not survive.
	if err := old.Close(); err != nil {
		s.cfg.Logf("serve: closing poisoned WAL: %v", err)
	}
	w, err := s.openWAL()
	if err != nil {
		return err
	}
	s.wal.Store(w)
	s.metrics.walRecoveries.Add(1)
	s.cfg.Logf("serve: WAL recovered after fail-stop (%d events replayed total, %d duplicates skipped); ingestion re-enabled",
		s.walReplayed.Load(), s.walSkipped.Load())
	return nil
}

// Flush refits a fork of the current system over the loaded corpus and
// every live cascade a refit can use (Store.Cascades), retrains the
// predictor on the corpus against the refit embeddings, and swaps the
// result in as a new generation. A flush with no store change since the
// current generation was loaded or refit does nothing, and so does one
// under a generation loaded without its corpus: a refit over the live
// store alone drifts from the corpus's fit and would serve the refit
// embeddings through a predictor trained on the old ones. Returns how
// many live cascades the refit saw.
func (s *Server) Flush() (int, error) {
	// A follower's model refinement happens on the primary; its own
	// store exists to serve reads and to be promotion-ready. The
	// periodic flush loop and the final drain flush therefore no-op
	// until promotion flips the role.
	if s.isFollower() {
		return 0, nil
	}
	defer s.lockGenerations()()
	cur := s.current()
	corpus := cur.sys.Corpus
	if len(corpus) == 0 {
		return 0, nil
	}
	// Read the count before the snapshot: an event that lands between
	// them is refit again by the next flush, never skipped.
	changes := s.store.Changes()
	if changes == cur.absorbed {
		return 0, nil
	}
	live := s.store.Cascades(cur.sys.Sys.N)
	if len(live) == 0 {
		return 0, nil
	}
	next := cur.sys.Sys.Fork()
	if err := s.update(next, slices.Concat(corpus, live)); err != nil {
		// Keep serving the last good generation and flag it stale; the
		// count it absorbed stays, so the next flush refits.
		s.markStale(err)
		return 0, fmt.Errorf("serve: online update: %w", err)
	}
	lm := &LoadedModel{Sys: next, Pred: cur.sys.Pred, Corpus: corpus}
	retrained := true
	if lm.Pred != nil {
		if pred, err := next.TrainPredictor(corpus, lm.Pred.EarlyCutoff(), lm.Pred.Threshold()); err == nil {
			lm.Pred = pred
		} else {
			// The refit embeddings swap in, but predictions still
			// come from the previous predictor: stale, and visibly so.
			retrained = false
			s.markStale(fmt.Errorf("predictor retrain failed: %w", err))
			s.cfg.Logf("serve: keeping previous predictor, retrain failed: %v", err)
		}
	}
	gen := s.swap(lm, changes)
	s.metrics.flushes.Add(1)
	if retrained {
		s.clearStale()
	}
	s.cfg.Logf("serve: refit the model over %d corpus and %d live cascades (generation %d)", len(corpus), len(live), gen)
	if w := s.walLog(); w != nil {
		// Generation-tied compaction: everything the new generation
		// absorbed no longer needs its raw log entries. The snapshot
		// callback runs under the WAL's write lock, so it sees every
		// event whose segment is about to be deleted.
		removed, err := w.Compact(s.store.AllEvents)
		if err != nil {
			s.cfg.Logf("serve: WAL compaction after generation %d: %v", gen, err)
		} else if removed > 0 {
			s.cfg.Logf("serve: WAL compaction dropped %d sealed segments (generation %d)", removed, gen)
		}
	}
	return len(live), nil
}

// Handler returns the daemon's HTTP handler, for embedding in an
// existing server or an httptest harness.
func (s *Server) Handler() http.Handler { return s.handler }

// Listen binds addr (host:port; port 0 picks a free port) and returns
// the bound address. Call before Serve.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Serve runs the daemon on the listener from Listen until ctx is
// canceled (or the listener fails), then drains gracefully: the
// listener closes, in-flight requests get up to DrainTimeout to finish,
// the periodic flush stops, and a final Flush absorbs what the live
// cascades learned before the WAL closes. Returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context) error {
	if s.ln == nil {
		return fmt.Errorf("serve: Serve called before Listen")
	}
	flushCtx, stopFlush := context.WithCancel(ctx)
	var flushDone chan struct{}
	if s.cfg.FlushEvery > 0 {
		flushDone = make(chan struct{})
		go s.flushLoop(flushCtx, flushDone)
	}

	err := httpkit.Serve(ctx, s.newHTTPServer(s.handler), s.ln, s.cfg.DrainTimeout)
	stopFlush()
	if flushDone != nil {
		<-flushDone
	}
	if _, ferr := s.Flush(); ferr != nil {
		s.cfg.Logf("serve: final flush: %v", ferr)
	}
	if cerr := s.Close(); cerr != nil {
		s.cfg.Logf("serve: closing WAL: %v", cerr)
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.cfg.Logf("serve: drained")
	return nil
}

// flushLoop periodically refits the model (Flush).
func (s *Server) flushLoop(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(s.cfg.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := s.Flush(); err != nil {
				s.cfg.Logf("serve: periodic flush: %v", err)
			}
		}
	}
}
