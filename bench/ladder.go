package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/eval"
	"viralcast/internal/features"
	"viralcast/internal/serve"
	"viralcast/internal/svm"
	"viralcast/internal/vecmath"
	"viralcast/internal/wal"
	"viralcast/internal/xrand"
)

// The ladder: one operation entered at every layer in turn, outermost
// first, against the same state. A layer's self time is its rung minus
// the rung below. Rungs are timed from here, around public calls only.
var layers = []string{"router", "http", "serve", "core", "features+svm", "vecmath"}

// span is one timed call into a layer. The spans of one operation share
// Op; Parent is the ID of the span one rung up (0 for the entry rung).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Class  string `json:"class"`
	Layer  string `json:"layer"`
	Items  int    `json:"items"`    // what the request carried at this rung
	Start  int64  `json:"start_ns"` // since the traced region began
	End    int64  `json:"end_ns"`
}

// tracer collects one client's spans in memory; they are merged and
// written out when the run ends.
type tracer struct {
	origin time.Time
	client int64
	spans  []span
}

func (t *tracer) add(parent, op int64, class opClass, layer string, items int, start time.Time, d time.Duration) int64 {
	id := t.client<<40 | int64(len(t.spans)+1)
	s := start.Sub(t.origin)
	t.spans = append(t.spans, span{id, parent, op, class.String(), layer, items, int64(s), int64(s + d)})
	return id
}

// rig is what the rungs below the HTTP ones need: a classifier trained
// by the benchmark on the fixture's own features (the Predictor keeps
// its own private), a Store, a Log where the workload has one, and
// fresh cascade ids for writes, which the SI duplicate guard makes
// non-idempotent.
type rig struct {
	fx      *fixture
	s       *sut
	std     *svm.Standardizer
	model   *svm.Model
	names   []string
	store   *serve.Store
	log     *wal.Log
	freshID atomic.Int64
	trainS  float64 // svm.train_s
}

func newRig(fx *fixture, s *sut) (*rig, error) {
	r := &rig{fx: fx, s: s, names: []string{"diverA", "normA", "maxA"}, store: serve.NewStore()}
	r.freshID.Store(1 << 40)
	sets, sizes, err := features.ExtractAll(fx.sys.Embeddings, fx.train, earlyCutoff)
	if err != nil {
		return nil, err
	}
	x := make([][]float64, len(sets))
	for i, fs := range sets {
		if x[i], err = fs.Select(r.names); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	if r.std, err = svm.FitStandardizer(x); err != nil {
		return nil, err
	}
	r.model, err = svm.TrainBestF1(r.std.Apply(x), eval.LabelsBySizeThreshold(sizes, fx.threshold),
		svm.Options{Seed: worldSeed + 1, Epochs: 60}, nil, xrand.New(worldSeed+2)) // as TrainPredictor seeds its own
	if err != nil {
		return nil, err
	}
	r.trainS = time.Since(t0).Seconds()
	if s.walDir != "" {
		if r.log, err = wal.Open(filepath.Join(s.walDir, "ladder"), wal.Options{}, nil); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *rig) close() error {
	if r.log == nil {
		return nil
	}
	return r.log.Close()
}

// fresh returns a copy of an events operation aimed at cascade ids no
// layer has seen.
func (r *rig) fresh(o *op) *op {
	cp := &op{class: opEvents, events: make([]event, len(o.events))}
	renamed := make(map[int]int)
	for i, ev := range o.events {
		id, ok := renamed[ev.Cascade]
		if !ok {
			id = int(r.freshID.Add(1))
			renamed[ev.Cascade] = id
		}
		cp.events[i] = event{id, ev.Node, ev.Time}
	}
	return cp
}

// oneShard narrows a routed operation to what the router sends one of
// the shards it involves — the cascades that shard owns — and names the
// shard. Replicated reads and the influencer fan-out go to shard 0 whole.
func (r *rig) oneShard(o *op) (*op, int) {
	switch o.class {
	case opPredict, opCascade:
		return o, r.s.owner(o.refs[0].id)
	case opPredictBatch:
		shard := r.s.owner(o.refs[0].id)
		cp := &op{class: o.class}
		for _, rf := range o.refs {
			if r.s.owner(rf.id) == shard {
				cp.refs = append(cp.refs, rf)
			}
		}
		return cp, shard
	case opEvents:
		shard := r.s.owner(o.events[0].Cascade)
		cp := &op{class: o.class}
		for _, ev := range o.events {
			if r.s.owner(ev.Cascade) == shard {
				cp.events = append(cp.events, ev)
			}
		}
		return cp, shard
	}
	return o, 0
}

// memWriter is an http.ResponseWriter with no socket behind it.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// serveMem enters a daemon at its handler: the whole chain the mux
// runs, no connection, no net/http server loop.
func serveMem(h http.Handler, w *memWriter, method, path string, body []byte) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, path, rd)
	if err != nil {
		return 0, err
	}
	w.header, w.status = make(http.Header), http.StatusOK
	w.body.Reset()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(t0)
	if w.status != http.StatusOK {
		return d, fmt.Errorf("handler: status %d: %.200s", w.status, w.body.Bytes())
	}
	return d, nil
}

// descend walks one already-answered operation down the rungs below its
// entry point and records a span per rung. entry is the span of the
// rung the workload itself entered at; routed says that was the router.
func (c *client) descend(r *rig, t *tracer, w *memWriter, o *op, opID, entry int64, routed bool) error {
	parent := entry
	req, shard := o, 0
	rung := func(layer string, start time.Time, d time.Duration) {
		parent = t.add(parent, opID, o.class, layer, req.items(), start, d)
	}
	// Writes are not idempotent: every rung gets its own fresh ids.
	if o.class == opEvents {
		req = r.fresh(o)
	}
	if routed {
		req, shard = r.oneShard(req)
		method, path, body := req.request(nil)
		start := time.Now()
		status, d, err := c.send(r.s.urls[shard], method, path, body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s direct to shard %d: status %d, %v", o.class, shard, status, err)
		}
		rung("http", start, d)
		if o.class == opEvents {
			req = r.fresh(req)
		}
	}
	method, path, body := req.request(nil)
	start := time.Now()
	d, err := serveMem(r.s.shards[shard].Handler(), w, method, path, body)
	if err != nil {
		return fmt.Errorf("%s: %w", o.class, err)
	}
	rung("serve", start, d)

	m := r.fx.sys.Embeddings
	switch o.class {
	case opPredict:
		live := c.ls.prefix(req.refs[0].id, req.refs[0].pos)
		start = time.Now()
		if _, _, err := r.fx.pred.PredictViral(live); err != nil {
			return err
		}
		rung("core", start, time.Since(start))
		early := live.Prefix(earlyCutoff)
		var row, stdRow [3]float64
		start = time.Now()
		fs, err := features.Extract(m, early)
		if err != nil {
			return err
		}
		sel, _ := fs.SelectAppend(row[:0], r.names) //nolint:errcheck // names are the package's own
		x := r.std.ApplyRow(stdRow[:0], sel)
		c.sink = r.model.Decision(x)
		rung("features+svm", start, time.Since(start))
		start = time.Now()
		c.sink = vecmath.Dot(r.model.W, x)
		rung("vecmath", start, time.Since(start))
	case opPredictBatch, opFeaturesBatch:
		lives := make([]*cascade.Cascade, len(req.refs))
		for i, rf := range req.refs {
			lives[i] = c.ls.prefix(rf.id, rf.pos)
		}
		names := r.names
		start = time.Now()
		if o.class == opPredictBatch {
			r.fx.pred.PredictViralBatch(lives, make([]core.BatchResult, len(lives)))
		} else {
			names = features.Names
			r.fx.pred.FeaturesBatch(lives, make([]core.FeatureResult, len(lives)))
		}
		rung("core", start, time.Since(start))
		earlies := make([]*cascade.Cascade, len(lives))
		for i, l := range lives {
			earlies[i] = l.Prefix(earlyCutoff)
		}
		errs := make([]error, len(lives))
		margins := make([]float64, len(lives))
		start = time.Now()
		blk := features.GetBlock(len(lives), len(names))
		features.ExtractBatch(m, earlies, names, blk, errs)
		if o.class == opPredictBatch {
			r.std.ApplyBlock(blk.Data, len(lives), len(names))
			r.model.DecisionBlock(margins, blk.Data, len(names))
		}
		rung("features+svm", start, time.Since(start))
		if o.class == opPredictBatch {
			start = time.Now()
			vecmath.Gemv(margins, blk.Data, len(names), r.model.W)
			rung("vecmath", start, time.Since(start))
		}
		features.PutBlock(blk)
	case opRate, opRateBatch:
		start = time.Now()
		for _, p := range req.pairs {
			c.sink = r.fx.sys.Rate(p[0], p[1])
		}
		rung("core", start, time.Since(start))
		start = time.Now()
		for _, p := range req.pairs {
			c.sink = vecmath.Dot(m.A.Row(p[0]), m.B.Row(p[1]))
		}
		rung("vecmath", start, time.Since(start))
	case opEvents:
		evs := r.fresh(req).events
		durable := make([]wal.Event, len(evs))
		start = time.Now()
		for i, ev := range evs {
			if _, err := r.store.Append(serve.Event(ev), r.fx.n); err != nil {
				return err
			}
			durable[i] = wal.Event{Cascade: ev.Cascade, Node: ev.Node, Time: ev.Time}
		}
		if r.log != nil {
			if err := r.log.AppendBatch(durable); err != nil {
				return err
			}
		}
		rung("core", start, time.Since(start))
	case opInfluencers:
		start = time.Now()
		r.fx.sys.TopInfluencers(req.k)
		rung("core", start, time.Since(start))
	}
	return nil
}

// ladder is the budget report; ladderRow is one layer's place in one
// class's ladder.
type ladder []ladderRow

type ladderRow struct {
	Class   string  `json:"class"`
	Layer   string  `json:"layer"`
	Samples int     `json:"samples"`
	RungUS  float64 `json:"rung_p50_us"`
	SelfUS  float64 `json:"self_us"`
	Share   float64 `json:"share_of_entry_p50"`
}

// buildLadder reduces spans to the budget report: per class, the median
// of every rung, each layer's self time, and its share of the entry
// rung's median.
func buildLadder(spans []span) ladder {
	byRung := make(map[[2]string][]float64)
	for _, s := range spans {
		k := [2]string{s.Class, s.Layer}
		byRung[k] = append(byRung[k], float64(s.End-s.Start)/1e3)
	}
	var rows ladder
	for _, class := range classNames {
		var present []string
		var rungs []float64
		for _, layer := range layers {
			if xs := byRung[[2]string{class, layer}]; len(xs) > 0 {
				present = append(present, layer)
				rungs = append(rungs, median(xs))
			}
		}
		for i, self := range selfTimes(rungs) {
			rows = append(rows, ladderRow{
				Class: class, Layer: present[i], Samples: len(byRung[[2]string{class, present[i]}]),
				RungUS: rungs[i], SelfUS: self, Share: self / rungs[0],
			})
		}
	}
	return rows
}

// find returns the row of one class at one layer, zero when the class
// never reached it.
func (rows ladder) find(class opClass, layer string) ladderRow {
	for _, r := range rows {
		if r.Class == class.String() && r.Layer == layer {
			return r
		}
	}
	return ladderRow{}
}

// perItemUS is the median, over a class's spans at one layer, of the
// span's time divided by the items it carried.
func perItemUS(spans []span, class opClass, layer string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Class == class.String() && s.Layer == layer && s.Items > 0 {
			xs = append(xs, float64(s.End-s.Start)/1e3/float64(s.Items))
		}
	}
	return median(xs)
}

func (rows ladder) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "# ladder %s: class layer samples rung_p50_us self_us share_of_entry_p50\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "# ladder %s %-14s %-12s %6d %10.2f %10.2f %6.1f%%\n",
			workload, r.Class, r.Layer, r.Samples, r.RungUS, r.SelfUS, 100*r.Share)
	}
}

// writeTrace writes the spans and the ladder reduced from them.
func writeTrace(workload string, spans []span, rows ladder) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Ladder   []ladderRow `json:"ladder"`
		Spans    []span      `json:"spans"`
	}{workload, rows, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}
