// Package faultinject is a deterministic fault-injection harness for
// testing the serving paths' failure handling: WAL durability and crash
// recovery, degraded flushes, request deadlines, and worker-crash
// containment. Production code calls the package-level hook functions
// (Fire, TruncateBy) at named sites; the hooks are no-ops — a single
// atomic nil check — unless a test has activated an Injector, so
// shipping them in hot paths costs nothing in normal operation. Training
// has no sites: its faults are test inputs (internal/infer's tests).
//
// Faults are armed per site with an exact hit number or a seed-driven
// probability, so every failure scenario a test provokes is reproducible
// bit-for-bit. Typical use:
//
//	inj := faultinject.NewInjector()
//	inj.Arm(faultinject.Fault{Site: "wal.fsync", Action: faultinject.Error, Hit: 3, Err: errors.New("disk full")})
//	defer faultinject.Activate(inj)()
package faultinject

import (
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"viralcast/internal/xrand"
)

// Action is what an armed fault does when it triggers.
type Action int

const (
	// Error makes Fire return the fault's Err.
	Error Action = iota
	// Panic makes Fire panic with the fault's Err (or a default message).
	Panic
	// Call makes Fire invoke the fault's Fn — e.g. a context.CancelFunc
	// to simulate a SIGINT arriving at an exact iteration.
	Call
	// Truncate makes TruncateBy return the fault's Bytes, telling the
	// caller to chop that many bytes off whatever it just wrote.
	Truncate
	// Exit makes Fire terminate the process immediately with the
	// fault's Code — a simulated SIGKILL at an exact site. Nothing
	// deferred runs and no buffers flush, which is the point: crash
	// recovery tests re-exec the test binary, arm an Exit fault at a
	// durability boundary (e.g. "wal.committed"), and assert the
	// restarted process recovers everything acknowledged before it.
	Exit
	// Sleep makes Fire block for the fault's Delay before returning nil
	// — latency injection. A Delay longer than the caller's deadline is
	// a stall: the chaos tests use it to simulate a hung disk (armed at
	// "wal.fsync") or a slow compute path (armed at "inflmax.greedy")
	// and assert that request deadlines, not the stalled operation,
	// bound how long a client waits.
	Sleep
)

// Fault describes one armed failure at one site.
type Fault struct {
	// Site names the hook location, e.g. "wal.fsync" or "wal.commit".
	Site string
	// Action selects the failure mode.
	Action Action
	// Hit triggers on exactly the Hit-th time the site is reached
	// (1-based). Hit == 0 means every hit is a candidate (gated by Prob
	// if set, otherwise it triggers every time).
	Hit int
	// Prob, when > 0, triggers each candidate hit with this probability,
	// drawn from a generator seeded with Seed — deterministic across runs.
	Prob float64
	// Seed drives the Prob draws.
	Seed uint64
	// Times bounds how often the fault may trigger in total; 0 means
	// unlimited.
	Times int
	// Err is returned (Error) or used as the panic value (Panic).
	Err error
	// Fn is invoked by the Call action.
	Fn func()
	// Bytes is returned by TruncateBy for the Truncate action.
	Bytes int
	// Code is the process exit status used by the Exit action.
	Code int
	// Delay is how long the Sleep action blocks.
	Delay time.Duration
}

type armed struct {
	Fault
	rng   *xrand.RNG
	fired int
}

// Injector holds a set of armed faults and per-site hit counters. All
// methods are safe for concurrent use — the hooks run inside parallel
// workers.
type Injector struct {
	mu     sync.Mutex
	faults map[string][]*armed
	hits   map[string]int
}

// NewInjector returns an empty injector.
func NewInjector() *Injector {
	return &Injector{faults: map[string][]*armed{}, hits: map[string]int{}}
}

// Arm registers a fault. Multiple faults may share a site.
func (in *Injector) Arm(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	a := &armed{Fault: f}
	if f.Prob > 0 {
		a.rng = xrand.New(f.Seed)
	}
	in.faults[f.Site] = append(in.faults[f.Site], a)
}

// Hits reports how many times the site has been reached while this
// injector was active.
func (in *Injector) Hits(site string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// Fired reports how many faults have triggered at the site.
func (in *Injector) Fired(site string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, a := range in.faults[site] {
		n += a.fired
	}
	return n
}

// trigger counts a hit at the site and returns the fault that fires, if
// any. The Call action's Fn runs here, under no lock held by the caller.
func (in *Injector) trigger(site string) *Fault {
	in.mu.Lock()
	in.hits[site]++
	hit := in.hits[site]
	var firing *armed
	for _, a := range in.faults[site] {
		if a.Times > 0 && a.fired >= a.Times {
			continue
		}
		if a.Hit > 0 && a.Hit != hit {
			continue
		}
		if a.Prob > 0 && a.rng.Float64() >= a.Prob {
			continue
		}
		a.fired++
		firing = a
		break
	}
	in.mu.Unlock()
	if firing == nil {
		return nil
	}
	return &firing.Fault
}

// active is the globally installed injector, nil when fault injection is
// off. Hooks load it with a single atomic read.
var active atomic.Pointer[Injector]

// Activate installs inj as the process-wide injector and returns a
// function that removes it. Tests that activate an injector must not run
// in parallel with each other.
func Activate(inj *Injector) (deactivate func()) {
	active.Store(inj)
	return func() { active.Store(nil) }
}

// Fire is the generic hook: it counts a hit at the site and, if a fault
// triggers, returns its error (Error), panics (Panic), or invokes its
// callback (Call). With no injector active it is a nil check and return.
func Fire(site string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	f := inj.trigger(site)
	if f == nil {
		return nil
	}
	switch f.Action {
	case Error:
		return f.Err
	case Panic:
		if f.Err != nil {
			panic(f.Err)
		}
		panic("faultinject: injected panic at " + site)
	case Call:
		if f.Fn != nil {
			f.Fn()
		}
	case Exit:
		os.Exit(f.Code)
	case Sleep:
		time.Sleep(f.Delay)
	}
	return nil
}

// SlowWriter wraps w so every Write trickles out in chunk-byte slices
// with delay between them — a client that reads (and thus lets the
// server write) painfully slowly, or a test server stalling a response.
func SlowWriter(w io.Writer, chunk int, delay time.Duration) io.Writer {
	if chunk < 1 {
		chunk = 1
	}
	return &slowWriter{w: w, chunk: chunk, delay: delay}
}

type slowWriter struct {
	w     io.Writer
	chunk int
	delay time.Duration
}

func (s *slowWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		time.Sleep(s.delay)
		n := s.chunk
		if n > len(p) {
			n = len(p)
		}
		k, err := s.w.Write(p[:n])
		total += k
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

// TruncateBy counts a hit at the site and returns how many trailing
// bytes the caller should discard from what it just wrote — 0 unless a
// Truncate fault triggers. The WAL uses it to simulate a crash
// mid-write.
func TruncateBy(site string) int {
	inj := active.Load()
	if inj == nil {
		return 0
	}
	f := inj.trigger(site)
	if f == nil || f.Action != Truncate {
		return 0
	}
	return f.Bytes
}
