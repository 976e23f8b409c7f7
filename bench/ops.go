package main

import (
	"math/rand"
	"strconv"
)

// opClass names one kind of request. The ladder and the latency samples
// are kept per class.
type opClass uint8

const (
	opPredict opClass = iota
	opRate
	opCascade
	opEvents
	opPredictBatch
	opFeaturesBatch
	opRateBatch
	opInfluencers
	numClasses
	opFit opClass = numClasses // train's one operation; never on the wire
)

var classNames = [numClasses + 1]string{
	"predict", "rate", "cascade", "events",
	"predict_batch", "features_batch", "rate_batch", "influencers", "fit",
}

func (c opClass) String() string { return classNames[c] }

// event is one infection report on the wire.
type event struct {
	Cascade int     `json:"cascade"`
	Node    int     `json:"node"`
	Time    float64 `json:"time"`
}

// advance is what an events operation does to one slot: after the
// daemon acknowledges it, the slot holds cascade id with pos events.
type advance struct{ slot, id, pos int }

// ref is a live cascade as a reader saw it: its id and how many of its
// events the daemon had acknowledged by then.
type ref struct{ id, pos int }

// op is one fully generated operation. Reads are generated as slots and
// resolved to the ids the slots hold only when the operation runs, so a
// read never races the slot's owner replacing a finished cascade.
type op struct {
	class    opClass
	slots    []int    // cascades read (one for the single-item classes)
	refs     []ref    // slots, resolved by resolve
	pairs    [][2]int // rate, rate:batch
	k        int      // influencers
	events   []event
	advances []advance
}

// items is how many units of work a resolved operation carries: one
// per request on the single-item classes, one per cascade, pair or
// event on the batched ones.
func (o *op) items() int {
	switch o.class {
	case opEvents:
		return len(o.events)
	case opPredictBatch, opFeaturesBatch:
		return len(o.refs)
	case opRateBatch:
		return len(o.pairs)
	}
	return 1
}

// opGen is one client's endless, deterministic operation stream: a
// function of (workload, seed, client index, client count) and of the
// slots the client itself owns, which only its own earlier operations
// move.
type opGen struct {
	workload string
	sz       sizing
	ls       *liveSet
	nodes    int
	client   int
	clients  int
	rng      *rand.Rand
	zipf     *rand.Zipf
	reads    int // batch: reads since the last events operation
}

func newOpGen(workload string, seed uint64, client, clients int, ls *liveSet, nodes int, sz sizing) *opGen {
	g := &opGen{
		workload: workload, sz: sz, ls: ls, nodes: nodes, client: client, clients: clients,
		rng: rand.New(rand.NewSource(int64(seed)*1000003 + int64(client))),
	}
	if workload == "batch" {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(ls.slots)-1))
	}
	return g
}

// ownSlot draws uniformly from the slots this client writes.
func (g *opGen) ownSlot() int {
	owned := (len(g.ls.slots) - g.client + g.clients - 1) / g.clients
	return g.client + g.clients*g.rng.Intn(owned)
}

// ownZipfSlot draws from the Zipf popularity order, moved to the
// nearest slot this client writes, so the feed churns the same head the
// reads favour.
func (g *opGen) ownZipfSlot() int {
	z := int(g.zipf.Uint64())
	s := z - z%g.clients + g.client
	if s >= len(g.ls.slots) {
		s -= g.clients
	}
	return s
}

// feedEvents appends up to want next events of the slot's cascade to o,
// first replacing the cascade with a fresh id if it has finished.
func (g *opGen) feedEvents(o *op, slot, want int) {
	id, pos := g.ls.load(slot)
	for i := len(o.advances) - 1; i >= 0; i-- {
		if o.advances[i].slot == slot { // drawn twice in one request
			id, pos = o.advances[i].id, o.advances[i].pos
			break
		}
	}
	if pos == g.ls.source(id).Size() {
		id, pos = id+len(g.ls.slots), 0
	}
	src := g.ls.source(id).Infections
	for ; want > 0 && pos < len(src); want-- {
		o.events = append(o.events, event{Cascade: id, Node: src[pos].Node, Time: src[pos].Time})
		pos++
	}
	o.advances = append(o.advances, advance{slot, id, pos})
}

func (g *opGen) pair() [2]int { return [2]int{g.rng.Intn(g.nodes), g.rng.Intn(g.nodes)} }

func (g *opGen) next() *op {
	switch g.workload {
	case "point":
		return g.nextPoint()
	case "batch":
		return g.nextBatch()
	}
	return g.nextFleet()
}

// point: 70 % predict, 15 % rate, 10 % cascade, 5 % one-event write.
func (g *opGen) nextPoint() *op {
	switch r := g.rng.Float64(); {
	case r < 0.70:
		return &op{class: opPredict, slots: []int{g.ownSlot()}}
	case r < 0.85:
		return &op{class: opRate, pairs: [][2]int{g.pair()}}
	case r < 0.95:
		return &op{class: opCascade, slots: []int{g.ownSlot()}}
	}
	o := &op{class: opEvents}
	g.feedEvents(o, g.ownSlot(), 1)
	return o
}

// batch: 60 % predict:batch, 20 % features:batch, 20 % rate:batch, and
// after every 8th read one 64-event write.
func (g *opGen) nextBatch() *op {
	if g.reads == 8 {
		g.reads = 0
		o := &op{class: opEvents}
		for i := 0; i < 64; i++ {
			g.feedEvents(o, g.ownZipfSlot(), 1)
		}
		return o
	}
	g.reads++
	r := g.rng.Float64()
	if r >= 0.80 {
		o := &op{class: opRateBatch, pairs: make([][2]int, g.sz.batchItems)}
		for i := range o.pairs {
			o.pairs[i] = g.pair()
		}
		return o
	}
	o := &op{class: opPredictBatch, slots: make([]int, g.sz.batchItems)}
	if r >= 0.60 {
		o.class = opFeaturesBatch
	}
	for i := range o.slots {
		o.slots[i] = int(g.zipf.Uint64())
	}
	return o
}

// fleet: 40 % 64-event writes over 8 cascades, 30 % predict:batch of
// uniform ids, 20 % predict, 10 % influencers with k uniform in [1,500].
func (g *opGen) nextFleet() *op {
	switch r := g.rng.Float64(); {
	case r < 0.40:
		o := &op{class: opEvents}
		for i := 0; i < 8; i++ {
			g.feedEvents(o, g.ownSlot(), 8)
		}
		return o
	case r < 0.70:
		o := &op{class: opPredictBatch, slots: make([]int, g.sz.fleetItems)}
		for i := range o.slots {
			o.slots[i] = g.rng.Intn(len(g.ls.slots))
		}
		return o
	case r < 0.90:
		return &op{class: opPredict, slots: []int{g.ownSlot()}}
	}
	return &op{class: opInfluencers, k: 1 + g.rng.Intn(500)}
}

// applied publishes what an acknowledged events operation did.
func (o *op) applied(ls *liveSet) {
	for _, a := range o.advances {
		ls.publish(a.slot, a.id, a.pos)
	}
}

// resolve loads the cascades the operation's slots hold right now.
func (o *op) resolve(ls *liveSet) {
	o.refs = make([]ref, len(o.slots))
	for i, s := range o.slots {
		o.refs[i].id, o.refs[i].pos = ls.load(s)
	}
}

// request renders a resolved operation as an HTTP request against any
// layer that speaks the daemon's API: the router, a daemon, a handler.
func (o *op) request(body []byte) (method, path string, _ []byte) {
	body = body[:0]
	switch o.class {
	case opPredict, opCascade:
		path = "/v1/cascades/" + strconv.Itoa(o.refs[0].id)
		if o.class == opPredict {
			path += "/predict"
		}
		return "GET", path, nil
	case opRate:
		return "GET", "/v1/rate?u=" + strconv.Itoa(o.pairs[0][0]) + "&v=" + strconv.Itoa(o.pairs[0][1]), nil
	case opInfluencers:
		return "GET", "/v1/influencers?k=" + strconv.Itoa(o.k), nil
	case opEvents:
		return "POST", "/v1/events", appendEvents(body, o.events)
	case opRateBatch:
		body = append(body, `{"pairs":[`...)
		for i, p := range o.pairs {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"u":`...)
			body = strconv.AppendInt(body, int64(p[0]), 10)
			body = append(body, `,"v":`...)
			body = strconv.AppendInt(body, int64(p[1]), 10)
			body = append(body, '}')
		}
		return "POST", "/v1/rate:batch", append(body, "]}"...)
	}
	body = append(body, `{"cascades":[`...)
	for i, r := range o.refs {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(r.id), 10)
	}
	body = append(body, "]}"...)
	if o.class == opFeaturesBatch {
		return "POST", "/v1/features:batch", body
	}
	return "POST", "/v1/predict:batch", body
}

// appendEvents renders an ingest body. Times use the shortest decimal
// that parses back to the same float64, so the daemon holds bit for bit
// the infection times the oracle computes on.
func appendEvents(b []byte, evs []event) []byte {
	b = append(b, `{"events":[`...)
	for i, ev := range evs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"cascade":`...)
		b = strconv.AppendInt(b, int64(ev.Cascade), 10)
		b = append(b, `,"node":`...)
		b = strconv.AppendInt(b, int64(ev.Node), 10)
		b = append(b, `,"time":`...)
		b = strconv.AppendFloat(b, ev.Time, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}
