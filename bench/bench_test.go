package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// smokeScale is the 1/100-scale suite the tests run.
const smokeScale = 0.01

// opListHash fingerprints the first count operations of every client's
// stream, applying each write so later operations see the state the
// earlier ones leave — what a run executes, without a daemon.
func opListHash(workload string, seed uint64, fx *fixture, sz sizing, clients, count int) uint64 {
	slots := sz.pointSlots
	if workload == "batch" {
		slots = sz.batchSlots
	}
	ls := newLiveSet(fx.feed, slots)
	h := fnv.New64a()
	for c := 0; c < clients; c++ {
		g := newOpGen(workload, seed, c, clients, ls, fx.n, sz)
		for i := 0; i < count; i++ {
			o := g.next()
			fmt.Fprintf(h, "%d %v %v %d %v|", o.class, o.slots, o.pairs, o.k, o.events)
			o.applied(ls)
		}
	}
	return h.Sum64()
}

func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	sz := sized(smokeScale)
	fx, err := buildFixture(1, sz)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"point", "batch", "fleet"} {
		a, b := opListHash(w, 1, fx, sz, 2, 400), opListHash(w, 1, fx, sz, 2, 400)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %x then %x", w, a, b)
		}
		if c := opListHash(w, 2, fx, sz, 2, 400); c == a {
			t.Errorf("%s: seeds 1 and 2 hashed alike (%x)", w, a)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestMedianWindowRate(t *testing.T) {
	// Five one-second windows holding 10, 10, 1000, 10 and 20 items, and
	// a straggler past the region: the median window is 10 items/s; the
	// burst and the straggler move nothing.
	var done []completion
	for w, items := range []int{10, 10, 1000, 10, 20} {
		done = append(done, completion{time.Duration(w)*time.Second + 500*time.Millisecond, items})
	}
	done = append(done, completion{5*time.Second + time.Millisecond, 999})
	if got := medianWindowRate(done, 5*time.Second, time.Second); got != 10 {
		t.Errorf("median window rate = %v, want 10", got)
	}
	// Half-second windows double the rate of the same counts.
	if got := medianWindowRate([]completion{{100 * time.Millisecond, 4}, {600 * time.Millisecond, 4}}, time.Second, 500*time.Millisecond); got != 8 {
		t.Errorf("half-second windows = %v, want 8", got)
	}
}

func TestLadderSubtraction(t *testing.T) {
	if got, want := selfTimes([]float64{100, 40, 10, 1}), []float64{60, 30, 9, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{Class: "predict", Layer: "http", Items: 1, Start: 0, End: us(50)},
		{Class: "predict", Layer: "http", Items: 1, Start: 0, End: us(30)},
		{Class: "predict", Layer: "http", Items: 1, Start: 0, End: us(40)},
		{Class: "predict", Layer: "serve", Items: 1, Start: 0, End: us(10)},
		{Class: "predict", Layer: "core", Items: 1, Start: 0, End: us(2)},
		{Class: "predict_batch", Layer: "serve", Items: 4, Start: 0, End: us(20)},
	}
	rows := buildLadder(spans)
	if got := rows.find(opPredict, "http").RungUS; got != 40 {
		t.Errorf("http rung p50 = %v, want 40", got)
	}
	if got := rows.find(opPredict, "http").SelfUS; got != 30 {
		t.Errorf("http self = %v, want 30", got)
	}
	if got := rows.find(opPredict, "serve").SelfUS; got != 8 {
		t.Errorf("serve self = %v, want 8", got)
	}
	if got := rows.find(opPredict, "core").SelfUS; got != 2 {
		t.Errorf("core self = %v, want 2", got)
	}
	if got := perItemUS(spans, opPredictBatch, "serve"); got != 5 {
		t.Errorf("per-item serve = %v, want 5", got)
	}
}

func TestF1(t *testing.T) {
	if got := f1Score(0, 5, 5); got != 0 {
		t.Errorf("f1 with no true positive = %v", got)
	}
	if got := f1Score(6, 2, 4); math.Abs(got-2*0.75*0.6/(0.75+0.6)) > 1e-15 {
		t.Errorf("f1 = %v", got)
	}
}

func TestScanners(t *testing.T) {
	compact := []byte(`{"results":[{"result":{"cascade":17,"viral":true,"margin":-0.5}},{"result":{"cascade":-3,"viral":false}}],"count":2,"errors":0}`)
	indented := []byte("{\n  \"cascade\": 42,\n  \"viral\": false,\n  \"accepted\": 64\n}")
	id, next, ok := scanIntAt(compact, `"cascade"`, 0)
	if !ok || id != 17 {
		t.Fatalf("first cascade = %d, %v", id, ok)
	}
	viral, next, ok := scanBoolAt(compact, `"viral"`, next)
	if !ok || !viral {
		t.Fatalf("first verdict = %v, %v", viral, ok)
	}
	if id, _, ok = scanIntAt(compact, `"cascade"`, next); !ok || id != -3 {
		t.Fatalf("second cascade = %d, %v", id, ok)
	}
	if n, ok := scanInt(compact, `"errors"`); !ok || n != 0 {
		t.Errorf("errors = %d, %v", n, ok)
	}
	if n, ok := scanInt(indented, `"accepted"`); !ok || n != 64 {
		t.Errorf("accepted = %d, %v", n, ok)
	}
	if v, _, ok := scanBoolAt(indented, `"viral"`, 0); !ok || v {
		t.Errorf("indented verdict = %v, %v", v, ok)
	}
	if _, ok := scanInt(indented, `"missing"`); ok {
		t.Error("found a key that is not there")
	}
}

// TestSmoke runs all four workloads at 1/100 scale, untraced and
// traced, and requires every declared metric to be there, finite, and
// no operation to have failed. Across the traced runs every per-layer
// metric must have been measured by at least one workload.
func TestSmoke(t *testing.T) {
	measured := make(map[string]bool)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			p := params{workload: w.Name, seed: 1, seconds: 0.25, trace: trace, scale: smokeScale, log: io.Discard}
			res, err := runWorkload(p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.Name, trace, m.Name, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v.Value)
				}
				if v.Value != 0 {
					measured[m.Name] = true
				}
			}
			if trace {
				if v := res.Metrics["failed_share"].Value; v != 0 {
					t.Errorf("%s: failed_share = %v", w.Name, v)
				}
				if _, err := os.Stat("out/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
	}
	for _, m := range perLayer {
		switch m.Name {
		case "failed_share", "serve.shed_total", "router.partial_total": // 0 is the passing value
		case "serve.cache_hit_ratio", "router.cache_hit_ratio": // too few repeats at this scale to count on a hit
		default:
			if !measured[m.Name] {
				t.Errorf("per-layer metric %s was 0 on every workload", m.Name)
			}
		}
	}
}

// TestBenchmarkJSON keeps the declaration the driver reads in step with
// the tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", decl.Paths, decl.RunSeconds)
	}
	if !reflect.DeepEqual(decl.Workloads, workloads) {
		t.Errorf("workloads differ:\n%+v\n%+v", decl.Workloads, workloads)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", decl.PerLayer, perLayer)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || m == metricSpec{"setup_s", "s", lower, m.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
}
