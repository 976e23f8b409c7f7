package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"viralcast"
	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/infer"
)

// Fixture constants. They are part of the benchmark's definition:
// changing one changes every number, so they stay the same on every
// commit.
const (
	// The network, its planted influence model and its cascades are one
	// fixed draw; the seed decides the order the cascades are trained on
	// and fed in, and every operation stream. Another network moves a
	// fit's time by a quarter and the served F1 by half (README.md,
	// "Steadiness"): against that, no regression bound a change could be
	// held to would mean anything.
	worldSeed   = 1
	window      = 8.0            // SBM observation window
	earlyCutoff = window * 2 / 7 // the paper's early-adopter cutoff
	topFraction = 0.2            // viral = top 20 % of training sizes
	// The serving model is a plain infer.Sequential fit — deliberately
	// not the timed pipeline, which the train workload owns. K=4 for 30
	// epochs is the smallest fit whose predictor separates the classes;
	// K=8 stalls after two epochs on this data and calls everything
	// viral (README.md, "Deviations").
	fixtureTopics = 4
	fixtureIters  = 30
)

// sizing is every size the workloads use, as a function of one scale
// factor: 1 is the benchmark, tests run a 1/100-scale smoke.
type sizing struct {
	nodes, cascades, feed int // serving fixture: SBM size, feed tail
	pointSlots            int // live cascades on point and fleet
	batchSlots            int // live cascades on batch (4x the cache cap)
	batchItems            int // items per batch request on batch
	fleetItems            int // ids per routed predict:batch
	oracleOps             int // operations replayed against the oracle
	trainNodes            int // train: SBM size
	trainCascades         int // train: cascades fitted
	trainHeldOut          int // train: cascades scored
	setups                int // set-ups per run; setup_s is their median
}

func sized(scale float64) sizing {
	at := func(full, floor int) int {
		if v := int(float64(full) * scale); v > floor {
			return v
		}
		return floor
	}
	return sizing{
		nodes: at(2000, 200), cascades: at(3000, 360), feed: at(1000, 120),
		pointSlots: at(8192, 96), batchSlots: at(16384, 192),
		batchItems: at(256, 16), fleetItems: at(64, 8),
		oracleOps:  at(512, 24),
		trainNodes: at(800, 150), trainCascades: at(1000, 240), trainHeldOut: at(1500, 120),
		setups: at(5, 1),
	}
}

// fixture is the fitted model every serving workload loads, plus the
// feed it replays and the truth the served verdicts are scored against.
type fixture struct {
	n         int
	train     []*cascade.Cascade
	feed      []*cascade.Cascade
	sys       *core.System
	pred      *core.Predictor
	threshold int
	viral     []bool // feed cascade's true final size >= threshold

	sequentialS     float64 // infer.Sequential, timed during set-up
	trainPredictorS float64 // System.TrainPredictor, likewise
}

// drawCascades simulates the fixed network's cascades and splits them,
// the first head and the rest, then shuffles each side with the seed:
// the seed decides the order cascades are trained on and the order they
// are fed in, never which side of the split a cascade is on.
func drawCascades(seed uint64, nodes, head, tail int) (first, rest []*cascade.Cascade, err error) {
	cs, err := viralcast.SimulateSBM(nodes, head+tail, window, worldSeed)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	first, rest = cs[:head], cs[head:]
	rng.Shuffle(len(first), func(i, j int) { first[i], first[j] = first[j], first[i] })
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return first, rest, nil
}

func buildFixture(seed uint64, sz sizing) (*fixture, error) {
	train, feed, err := drawCascades(seed, sz.nodes, sz.cascades-sz.feed, sz.feed)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	fx := &fixture{n: sz.nodes, train: train, feed: feed}
	t0 := time.Now()
	m, _, err := infer.Sequential(fx.train, fx.n, infer.Config{K: fixtureTopics, MaxIter: fixtureIters, Seed: worldSeed})
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	fx.sequentialS = time.Since(t0).Seconds()
	fx.sys = core.NewSystem(m, core.TrainConfig{Seed: worldSeed})
	fx.threshold = viralcast.TopSizeThreshold(fx.train, topFraction)
	t0 = time.Now()
	if fx.pred, err = fx.sys.TrainPredictor(fx.train, earlyCutoff, fx.threshold); err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	fx.trainPredictorS = time.Since(t0).Seconds()
	fx.viral = make([]bool, len(fx.feed))
	for i, c := range fx.feed {
		fx.viral[i] = c.Size() >= fx.threshold
	}
	return fx, nil
}

// liveSet is the generator's view of the daemon's live cascades. Slot s
// is written only by client s mod C; any client may read it. A live
// cascade with id i replays feed cascade i mod len(feed) event by
// event, so the generator knows every live cascade's true final size.
// When a slot's cascade has replayed its last event the owner replaces
// it with a fresh id (the slot's previous id plus the slot count).
//
// A slot's (id, events acknowledged) pair is published in one atomic
// word, and only after the daemon has acknowledged those events: a
// reader on another client never asks for an id the daemon has not
// seen, and the pair it loads is a prefix the daemon certainly holds.
type liveSet struct {
	feed  []*cascade.Cascade
	slots []atomic.Uint64
}

const posBits = 16 // cascade sizes are bounded by the node count, < 2^16

func newLiveSet(feed []*cascade.Cascade, slots int) *liveSet {
	ls := &liveSet{feed: feed, slots: make([]atomic.Uint64, slots)}
	for s := range ls.slots {
		ls.publish(s, s, 0)
	}
	return ls
}

func (ls *liveSet) publish(slot, id, pos int) {
	ls.slots[slot].Store(uint64(id)<<posBits | uint64(pos))
}

// load returns the slot's current cascade id and how many of its events
// the daemon has acknowledged.
func (ls *liveSet) load(slot int) (id, pos int) {
	v := ls.slots[slot].Load()
	return int(v >> posBits), int(v & (1<<posBits - 1))
}

// early is how many events of live cascade id fall at or before the
// early cutoff: what the daemon is preloaded with, so that the timed
// region's verdicts are the paper's early-stage predictions and later
// events churn sizes without changing what the predictor sees.
func (ls *liveSet) early(id int) int {
	v, _ := ls.source(id).PrefixView(earlyCutoff) // simulated cascades are time-sorted
	return v.Size()
}

// source is the feed cascade live cascade id replays.
func (ls *liveSet) source(id int) *cascade.Cascade { return ls.feed[id%len(ls.feed)] }

// prefix is the live cascade as the daemon holds it after pos events.
func (ls *liveSet) prefix(id, pos int) *cascade.Cascade {
	return &cascade.Cascade{ID: id, Infections: ls.source(id).Infections[:pos]}
}
