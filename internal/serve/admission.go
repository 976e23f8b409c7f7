package serve

import (
	"context"
	"errors"
	"sync/atomic"
)

// Admission control: the daemon classifies its routes by cost — cheap
// point reads, expensive model compute (prediction feature extraction,
// influencer scans, greedy seed selection), and ingestion (store append
// plus WAL fsync) — and bounds each class independently. A request
// first tries for an execution slot; if the class is saturated it waits
// in a small bounded queue (its context deadline keeps the wait
// honest); once the queue is full the request is shed immediately with
// 429 and a Retry-After hint. Shedding the excess keeps the admitted
// requests inside their latency budget instead of letting every client
// time out together — the classic overload-collapse failure mode.

// ClassLimit bounds one route class. Zero values take the class
// default; MaxInflight < 0 disables limiting for the class entirely.
type ClassLimit struct {
	// MaxInflight is the number of requests of this class allowed to
	// execute concurrently.
	MaxInflight int
	// MaxQueue is how many requests beyond MaxInflight may wait for a
	// slot before new arrivals are shed with 429. 0 keeps the class
	// default; < 0 means no queue (shed as soon as saturated).
	MaxQueue int
}

// AdmissionConfig carries the one class limit an operator sizes: the
// compute class's. The zero value enables admission control with
// serving-friendly defaults generous enough that only genuine overload
// sheds.
type AdmissionConfig struct {
	// Compute bounds the expensive endpoints (predict, influencers,
	// seeds, simulate, predict:batch, features:batch) — the ones an
	// overload turns into CPU fires. Default 16 in flight, 64 queued.
	Compute ClassLimit
}

// Route-class names; also the metric labels under overload_*.
const (
	classRead    = "read"
	classCompute = "compute"
	classIngest  = "ingest"
)

// retryAfterSeconds is the backoff hint, in whole seconds, sent with
// every 429 shed response.
const retryAfterSeconds = 1

// errShed is returned by limiter.acquire when both the slots and the
// wait queue are full: the caller must answer 429.
var errShed = errors.New("serve: admission queue full")

// limiter is one class's concurrency gate: a buffered-channel
// semaphore for the execution slots plus a counter-bounded wait queue.
type limiter struct {
	class    string
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64
	shed     atomic.Uint64
	admitted atomic.Uint64
}

func newLimiter(class string, lim ClassLimit) *limiter {
	if lim.MaxInflight < 0 {
		return nil // unlimited: no gate at all
	}
	l := &limiter{class: class, slots: make(chan struct{}, lim.MaxInflight)}
	if lim.MaxQueue > 0 {
		l.maxQueue = int64(lim.MaxQueue)
	}
	return l
}

// acquire admits one request. It returns a release func on success,
// errShed when the class is saturated and the queue is full, or the
// context's error when the deadline fires while queued.
func (l *limiter) acquire(ctx context.Context) (release func(), err error) {
	select {
	case l.slots <- struct{}{}:
		l.admitted.Add(1)
		return func() { <-l.slots }, nil
	default:
	}
	if q := l.queued.Add(1); q > l.maxQueue {
		l.queued.Add(-1)
		l.shed.Add(1)
		return nil, errShed
	}
	defer l.queued.Add(-1)
	select {
	case l.slots <- struct{}{}:
		l.admitted.Add(1)
		return func() { <-l.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// admissionSnapshot is one class's live counters, for /metrics.
type admissionSnapshot struct {
	Inflight int    `json:"inflight"`
	Queued   int    `json:"queued"`
	Shed     uint64 `json:"shed"`
	Admitted uint64 `json:"admitted"`
}

// admission is the daemon's full set of class limiters.
type admission struct {
	limiters map[string]*limiter
}

func newAdmission(cfg AdmissionConfig) *admission {
	compute := cfg.Compute
	if compute.MaxInflight == 0 {
		compute.MaxInflight = 16
	}
	if compute.MaxQueue == 0 {
		compute.MaxQueue = 64
	}
	// The cheap reads (cascade lookup, rate, rate:batch) and ingestion
	// have fixed limits, generous enough that only genuine overload
	// sheds.
	return &admission{limiters: map[string]*limiter{
		classRead:    newLimiter(classRead, ClassLimit{MaxInflight: 256, MaxQueue: 512}),
		classCompute: newLimiter(classCompute, compute),
		classIngest:  newLimiter(classIngest, ClassLimit{MaxInflight: 128, MaxQueue: 256}),
	}}
}

// snapshot feeds the overload_* metrics.
func (a *admission) snapshot() map[string]admissionSnapshot {
	out := make(map[string]admissionSnapshot, len(a.limiters))
	for class, l := range a.limiters {
		if l == nil {
			continue
		}
		out[class] = admissionSnapshot{
			Inflight: len(l.slots),
			Queued:   int(l.queued.Load()),
			Shed:     l.shed.Load(),
			Admitted: l.admitted.Load(),
		}
	}
	return out
}
