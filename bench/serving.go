package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// outDir holds results, traces and WAL segments; the benchmark runs
// with bench/ as its working directory.
const outDir = "out"

// params is one workload run.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64   // 1 is the benchmark; tests run smaller
	log      io.Writer // human-readable progress and the ladder
}

func (p params) duration(share float64) time.Duration {
	return time.Duration(p.seconds * share * float64(time.Second))
}

// clientCount is C: callers of this API wait for replies, so load is
// closed-loop, one connection per caller.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// stage is a serving workload set up and ready: fixture loaded, daemons
// listening, every live cascade preloaded with its early adopters.
type stage struct {
	fx      *fixture
	s       *sut
	ls      *liveSet
	clients []*client
}

func (st *stage) stop() error {
	for _, c := range st.clients {
		c.close()
	}
	return st.s.stop()
}

// each runs fn on every client at once and waits for all of them.
func (st *stage) each(fn func(i int, c *client)) {
	var wg sync.WaitGroup
	for i, c := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}

func (st *stage) failure() error {
	for _, c := range st.clients {
		if c.firstFailure != "" {
			return fmt.Errorf("%s", c.firstFailure)
		}
	}
	return nil
}

// setUp builds one stage from nothing: simulate, fit, train the
// predictor, start the daemons, preload the live cascades over HTTP.
func setUp(p params, sz sizing, walDir string) (*stage, error) {
	fx, err := buildFixture(p.seed, sz)
	if err != nil {
		return nil, err
	}
	shards, slots := 1, sz.pointSlots
	switch p.workload {
	case "batch":
		slots = sz.batchSlots
	case "fleet":
		shards = 3
	}
	if shards == 1 {
		walDir = ""
	}
	s, err := startSUT(fx, shards, walDir)
	if err != nil {
		return nil, err
	}
	st := &stage{fx: fx, s: s, ls: newLiveSet(fx.feed, slots)}
	n := clientCount()
	for i := 0; i < n; i++ {
		gen := newOpGen(p.workload, p.seed, i, n, st.ls, fx.n, sz)
		st.clients = append(st.clients, newClient(fx, st.ls, gen))
	}
	st.each(func(i int, c *client) {
		o := &op{class: opEvents}
		for slot := i; slot < slots; slot += n {
			c.gen.feedEvents(o, slot, st.ls.early(slot))
			if len(o.events) >= 64 || slot+n >= slots {
				c.run(s.entry, o)
				o = &op{class: opEvents}
			}
		}
	})
	if err := st.failure(); err != nil {
		st.stop() //nolint:errcheck // the preload failure is the one to report
		return nil, fmt.Errorf("preload: %w", err)
	}
	return st, nil
}

// goCounters reads the runtime's cumulative allocation and CPU counters.
type goCounters struct{ allocs, bytes, gcCPU, totalCPU float64 }

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goCounters{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), s[2].Value.Float64(), s[3].Value.Float64()}
}

// rssPeakMB is the process's high-water resident set.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// dominant is the class a serving workload is mostly made of: the one
// its http and router self times and its tracing overhead are read on.
func dominant(workload string) opClass {
	if workload == "point" {
		return opPredict
	}
	return opPredictBatch
}

func runServing(p params) (*result, error) {
	sz := sized(p.scale)
	walRoot := filepath.Join(outDir, fmt.Sprintf("wal-%s-%d", p.workload, os.Getpid()))

	// Set-up, several times over: setup_s is the median, so one slow
	// start does not read as a regression. The last stage is kept.
	var st *stage
	setups := make([]float64, sz.setups)
	for i := range setups {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = setUp(p, sz, walRoot); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer st.stop() //nolint:errcheck // the run's own error is the one to report
	vals := map[string]float64{"setup_s": median(setups)}

	// Oracle: the streams' first operations, one at a time.
	for i := 0; i < sz.oracleOps; i++ {
		c := st.clients[i%len(st.clients)]
		c.verify(st.s, c.gen.next())
	}
	if err := st.failure(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	// Warm-up, then the timed region. The warm-up's rate sizes the
	// sample buffers once, with room to spare: a buffer that doubled
	// mid-run would move rss_peak_mb by the harness's own garbage.
	warm := time.Now()
	st.each(func(_ int, c *client) {
		ops := c.attempted
		c.loop(st.s.entry, warm, warm.Add(p.duration(0.05)), false)
		c.samples = make([]sample, 0, (c.attempted-ops)*20*3/2)
		c.tp, c.fp, c.fn, c.tn = 0, 0, 0, 0
	})
	before, err := st.s.counters()
	if err != nil {
		return nil, err
	}
	goBefore := readGo()
	region := p.duration(1)
	start := time.Now()
	st.each(func(_ int, c *client) { c.loop(st.s.entry, start, start.Add(region), true) })
	goAfter := readGo()
	after, err := st.s.counters()
	if err != nil {
		return nil, err
	}
	delta := after.minus(before)

	var tp, fp, fn, items, ops int
	for _, c := range st.clients {
		tp, fp, fn, ops = tp+c.tp, fp+c.fp, fn+c.fn, ops+len(c.samples)
	}
	done := make([]completion, 0, ops)
	lats := make([]float64, 0, ops)
	var domLats []float64 // the dominant class's, for the tracing overhead
	for _, c := range st.clients {
		for _, s := range c.samples {
			done = append(done, s.done)
			lats = append(lats, float64(s.lat)/1e6)
			if p.trace && s.class == dominant(p.workload) {
				domLats = append(domLats, float64(s.lat)/1e6)
			}
			items += s.done.items
		}
	}
	sort.Float64s(lats)
	win := time.Second
	if region < 4*win {
		win = region / 4
	}
	vals["items_per_s"] = medianWindowRate(done, region, win)
	vals["latency_p50_ms"] = percentile(lats, 0.50)
	vals["f1"] = f1Score(tp, fp, fn)
	vals["http.p90_ms"] = percentile(lats, 0.90)
	vals["http.p95_ms"] = percentile(lats, 0.95)
	vals["http.p99_ms"] = percentile(lats, 0.99)
	vals["serve.cache_hit_ratio"] = ratio(delta.cacheHits, delta.cacheMisses)
	vals["serve.shed_total"] = after.shed
	vals["router.cache_hit_ratio"] = ratio(delta.routerHits, delta.routerMisses)
	vals["router.partial_total"] = after.routerPartials
	vals["wal.fsyncs"] = delta.walFsyncs
	if delta.walFsyncs > 0 {
		vals["wal.events_per_fsync"] = delta.walAppends / delta.walFsyncs
		vals["wal.bytes_per_event"] = delta.walBytes / delta.walAppends
	}
	vals["go.allocs_per_item"] = (goAfter.allocs - goBefore.allocs) / float64(items)
	vals["go.alloc_bytes_per_item"] = (goAfter.bytes - goBefore.bytes) / float64(items)
	vals["go.gc_cpu_share"] = (goAfter.gcCPU - goBefore.gcCPU) / (goAfter.totalCPU - goBefore.totalCPU)
	fmt.Fprintf(p.log, "# %s: %d clients, GOMAXPROCS %d, %s, %d latency samples in %v, wal_dir %q\n",
		p.workload, len(st.clients), runtime.GOMAXPROCS(0), runtime.Version(), ops, region, st.s.walDir)

	if p.trace {
		if err := traceServing(p, st, vals, median(domLats)); err != nil {
			return nil, err
		}
	}

	res := &result{}
	for _, c := range st.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	if err := st.failure(); err != nil {
		fmt.Fprintf(p.log, "# %s: FAILED: %v\n", p.workload, err)
	}
	if after.shed > 0 || after.routerPartials > 0 {
		fmt.Fprintf(p.log, "# %s: FAILED: %v requests shed, %v partial answers\n", p.workload, after.shed, after.routerPartials)
		res.Failed += int(after.shed + after.routerPartials)
	}
	vals["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	vals["rss_peak_mb"] = rssPeakMB()
	res.Correct = res.Failed == 0
	res.Metrics = report(p.trace, vals)
	return res, nil
}

// traceServing is the traced run: the same closed loop for half as
// long again, every operation a span at the workload's entry rung, and
// one operation in 64 then walked down every rung below it. After it,
// the kernels are timed on their own.
func traceServing(p params, st *stage, vals map[string]float64, untracedP50ms float64) error {
	r, err := newRig(st.fx, st.s)
	if err != nil {
		return err
	}
	defer r.close() //nolint:errcheck // nothing durable rides on the ladder's log
	entry := "http"
	if st.s.router != nil {
		entry = "router"
	}
	start := time.Now()
	deadline := start.Add(p.duration(0.5))
	tracers := make([]*tracer, len(st.clients))
	st.each(func(i int, c *client) {
		t := &tracer{origin: start, client: int64(i + 1)}
		tracers[i] = t
		w := new(memWriter)
		for n := int64(0); time.Now().Before(deadline); n++ {
			o := c.gen.next()
			t0 := time.Now()
			lat := c.run(st.s.entry, o)
			opID := t.client<<40 | n
			id := t.add(0, opID, o.class, entry, o.items(), t0, lat)
			if n%64 == 0 {
				if err := c.descend(r, t, w, o, opID, id, st.s.router != nil); err != nil {
					c.fail(o, "ladder: %v", err)
				}
			}
		}
	})
	var spans []span
	for _, t := range tracers {
		spans = append(spans, t.spans...)
	}
	rows := buildLadder(spans)
	rows.print(p.log, p.workload)
	dom := dominant(p.workload)
	tracedMS := rows.find(dom, entry).RungUS / 1e3
	vals["trace.overhead_share"] = tracedMS/untracedP50ms - 1
	fmt.Fprintf(p.log, "# %s: tracing overhead on %s: traced p50 %.4f ms, untraced %.4f ms (%+.1f%%)\n",
		p.workload, dom, tracedMS, untracedP50ms, 100*vals["trace.overhead_share"])
	vals["http.self_us"] = rows.find(dom, "http").SelfUS
	vals["router.self_us"] = rows.find(dom, "router").SelfUS
	vals["router.fanout_influencers_us"] = rows.find(opInfluencers, "router").RungUS
	vals["serve.predict_handler_us"] = rows.find(opPredict, "serve").RungUS
	vals["serve.predict_batch_handler_us_per_cascade"] = perItemUS(spans, opPredictBatch, "serve")
	vals["serve.events_handler_us_per_event"] = perItemUS(spans, opEvents, "serve")
	if err := microServing(r, st.ls, p.duration(0.002), vals); err != nil {
		return err
	}
	return writeTrace(p.workload, spans, rows)
}
