package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// sample is one timed operation of the measured region.
type sample struct {
	class opClass
	lat   time.Duration
	done  completion
}

// client is one closed-loop caller: it owns one keep-alive connection,
// one operation stream, and everything it measures, so the clients
// share nothing but the live set's published slots.
type client struct {
	fx   *fixture
	ls   *liveSet
	gen  *opGen
	hc   *http.Client
	resp bytes.Buffer // last response body
	body []byte       // request body scratch

	samples        []sample
	attempted      int
	failed         int
	firstFailure   string
	tp, fp, fn, tn int // served verdicts against the feed's truth

	sink float64 // keeps the compiler from discarding a timed result
}

func newClient(fx *fixture, ls *liveSet, gen *opGen) *client {
	return &client{fx: fx, ls: ls, gen: gen, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) fail(o *op, format string, args ...any) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = o.class.String() + ": " + fmt.Sprintf(format, args...)
	}
}

// send performs one HTTP exchange, leaving the body in c.resp, and
// returns the status and how long the caller waited for the full reply.
func (c *client) send(base, method, path string, body []byte) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, lat, err
}

// run executes one operation against base and checks the reply the
// cheap way every operation of the timed region is checked: status, the
// envelope's error tally, acknowledged events, and the verdicts' F1
// bookkeeping. It publishes an acknowledged write.
func (c *client) run(base string, o *op) time.Duration {
	o.resolve(c.ls)
	method, path, body := o.request(c.body)
	if body != nil {
		c.body = body
	}
	c.attempted++
	status, lat, err := c.send(base, method, path, body)
	switch {
	case err != nil:
		c.fail(o, "%v", err)
	case status != http.StatusOK:
		c.fail(o, "status %d: %.200s", status, c.resp.Bytes())
	default:
		c.check(o)
	}
	if o.class == opEvents {
		// Published even on a failed check: the stream must not resend
		// events the daemon may hold. The failure is already counted.
		o.applied(c.ls)
	}
	return lat
}

func (c *client) check(o *op) {
	b := c.resp.Bytes()
	if bytes.Contains(b, []byte(`"partial"`)) {
		c.fail(o, "partial answer: %.200s", b)
		return
	}
	switch o.class {
	case opEvents:
		if n, ok := scanInt(b, `"accepted"`); !ok || n != len(o.events) {
			c.fail(o, "accepted %d of %d events: %.200s", n, len(o.events), b)
		}
	case opPredictBatch, opFeaturesBatch, opRateBatch:
		if n, ok := scanInt(b, `"errors"`); !ok || n != 0 {
			c.fail(o, "%d error slots: %.200s", n, b)
			return
		}
		if n, ok := scanInt(b, `"count"`); !ok || n != o.items() {
			c.fail(o, "%d slots for %d items", n, o.items())
			return
		}
		if o.class == opPredictBatch && c.countVerdicts(b) != len(o.refs) {
			c.fail(o, "verdicts missing: %.200s", b)
		}
	case opPredict:
		if c.countVerdicts(b) != 1 {
			c.fail(o, "no verdict: %.200s", b)
		}
	}
}

// countVerdicts walks every ("cascade": id, "viral": bool) pair of a
// predict or predict:batch reply, scores it against the feed cascade's
// true final size, and returns how many it found.
func (c *client) countVerdicts(b []byte) int {
	n := 0
	for at := 0; ; n++ {
		id, next, ok := scanIntAt(b, `"cascade"`, at)
		if !ok {
			return n
		}
		viral, next, ok := scanBoolAt(b, `"viral"`, next)
		if !ok {
			return n
		}
		at = next
		truth := c.fx.viral[id%len(c.fx.viral)]
		switch {
		case viral && truth:
			c.tp++
		case viral:
			c.fp++
		case truth:
			c.fn++
		default:
			c.tn++
		}
	}
}

// The replies of the timed region are scanned, not decoded: a full
// encoding/json decode of a 256-slot envelope costs the client more than
// the daemon spent producing it, and the client shares the machine.

// valueAt finds key at or after from and returns the offset of its
// value, past the colon and any spaces.
func valueAt(b []byte, key string, from int) (int, bool) {
	i := bytes.Index(b[from:], []byte(key))
	if i < 0 {
		return 0, false
	}
	i += from + len(key)
	for i < len(b) && (b[i] == ' ' || b[i] == ':') {
		i++
	}
	return i, i < len(b)
}

func scanIntAt(b []byte, key string, from int) (v, next int, ok bool) {
	i, ok := valueAt(b, key, from)
	if !ok {
		return 0, 0, false
	}
	j := i
	for j < len(b) && (b[j] == '-' || b[j] >= '0' && b[j] <= '9') {
		j++
	}
	v, err := strconv.Atoi(string(b[i:j]))
	return v, j, err == nil
}

func scanInt(b []byte, key string) (int, bool) {
	v, _, ok := scanIntAt(b, key, 0)
	return v, ok
}

func scanBoolAt(b []byte, key string, from int) (v bool, next int, ok bool) {
	i, ok := valueAt(b, key, from)
	if !ok {
		return false, 0, false
	}
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		return true, i + 4, true
	case bytes.HasPrefix(b[i:], []byte("false")):
		return false, i + 5, true
	}
	return false, 0, false
}

// loop runs the client's stream against base until the deadline,
// recording a sample per operation when record is set. Completion times
// are relative to start.
func (c *client) loop(base string, start time.Time, deadline time.Time, record bool) {
	for time.Now().Before(deadline) {
		o := c.gen.next()
		lat := c.run(base, o)
		if record {
			c.samples = append(c.samples, sample{o.class, lat, completion{time.Since(start), o.items()}})
		}
	}
}
