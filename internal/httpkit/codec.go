package httpkit

import (
	"bytes"
	"errors"
	"slices"
	"strconv"

	"viralcast/internal/core"
	"viralcast/internal/wal"
)

// The shapes of the batched data plane, scanned and rendered with the
// primitives of wire.go under the contract stated there.

// ScanCascades scans {"cascades":[id,...]}, the request body of the
// cascade-scoped batch endpoints, appending the ids to dst.
func ScanCascades(b []byte, dst []int) ([]int, bool) {
	c := cursor{b: b}
	ok := c.list(`"cascades"`, func() bool {
		id, ok := c.integer()
		dst = append(dst, id)
		return ok
	})
	return dst, ok
}

// ErrCascadesBody is the one message an undecodable cascade-batch body
// earns, at the daemon and at the router.
var ErrCascadesBody = errors.New(`body must be {"cascades": [id, ...]}`)

// DecodeCascades reads a cascade-batch body into dst[:0]: the scanner on
// the canonical encoding, the strict reflective decoder on anything
// else, so acceptance and the error are that decoder's.
func DecodeCascades(body []byte, dst []int) ([]int, error) {
	if ids, ok := ScanCascades(body, dst[:0]); ok {
		return ids, nil
	}
	var req struct {
		Cascades []int `json:"cascades"`
	}
	if err := DecodeStrict(body, &req); err != nil || req.Cascades == nil {
		return dst[:0], ErrCascadesBody
	}
	return append(dst[:0], req.Cascades...), nil
}

// ScanPairs scans {"pairs":[{"u":i,"v":i},...]}, the rate:batch request
// body, appending each pair as {u, v} to dst.
func ScanPairs(b []byte, dst [][2]int) ([][2]int, bool) {
	c := cursor{b: b}
	ok := c.list(`"pairs"`, func() bool {
		u, okU := c.member("{", `"u"`)
		v, okV := c.member(",", `"v"`)
		dst = append(dst, [2]int{u, v})
		return okU && okV && c.tok("}")
	})
	return dst, ok
}

// ScanEvents scans the ingest envelope
// {"events":[{"cascade":i,"node":i,"time":f},...]}, appending the events
// to dst and, when spans is non-nil, the byte range of each event's
// object to *spans: the router forwards those bytes to the owning shard
// as they are, so no float is re-formatted on the way. The bare
// single-event body is not an envelope and reports ok=false.
func ScanEvents(b []byte, dst []wal.Event, spans *[]Span) ([]wal.Event, bool) {
	c := cursor{b: b}
	ok := c.list(`"events"`, func() bool {
		var ev wal.Event
		var ok bool
		c.space()
		lo := c.i
		if ev.Cascade, ok = c.member("{", `"cascade"`); !ok {
			return false
		}
		if ev.Node, ok = c.member(",", `"node"`); !ok || !c.key(",", `"time"`) {
			return false
		}
		if ev.Time, ok = c.number(); !ok || !c.tok("}") {
			return false
		}
		dst = append(dst, ev)
		if spans != nil {
			*spans = append(*spans, Span{lo, c.i})
		}
		return true
	})
	return dst, ok
}

// ErrEventsBody is the one message an undecodable ingest body earns,
// at the daemon and at the router.
var ErrEventsBody = errors.New(`body must be {"events": [...]} or a single {cascade, node, time} object`)

// DecodeEventsStrict is the reflective decode of an ingest body, for
// what ScanEvents refuses: the batch envelope, else one bare event,
// unknown fields rejected either way.
func DecodeEventsStrict(body []byte) ([]wal.Event, error) {
	var batch struct {
		Events []wal.Event `json:"events"`
	}
	if err := DecodeStrict(body, &batch); err == nil && batch.Events != nil {
		return batch.Events, nil
	}
	var one wal.Event
	if err := DecodeStrict(body, &one); err != nil {
		return nil, ErrEventsBody
	}
	return []wal.Event{one}, nil
}

// EventReject reports one event of an ingest batch that was not
// ingested; at the router Index is in the caller's batch coordinates.
type EventReject struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// CascadeSize is one entry of an ingest ack's "sizes" object.
type CascadeSize struct{ ID, Size int }

// appendList renders a list of n objects the way the indenting encoder
// does one level down: null for a nil slice, [] for an empty one, else
// one object per element, its members through elem.
func appendList(b []byte, isNil bool, n int, elem func(b []byte, i int) []byte) []byte {
	switch {
	case isNil:
		return append(b, "null"...)
	case n == 0:
		return append(b, "[]"...)
	}
	for i := 0; i < n; i++ {
		sep := byte(',')
		if i == 0 {
			sep = '['
		}
		b = elem(append(append(b, sep), "\n    {"...), i)
		b = append(b, "\n    }"...)
	}
	return append(b, "\n  ]"...)
}

// AppendAckJSON renders the ingest ack exactly as WriteJSON renders
// map[string]any{"accepted": n, "rejected": rejected, "sizes":
// map[string]int}: indented, keys sorted — as strings, so "10" < "9" —
// a nil rejected list as null and an empty one as []. sizes is sorted
// in place; where a cascade appears more than once its last entry wins,
// as the last store into the map did.
func AppendAckJSON(b []byte, accepted int, rejected []EventReject, sizes []CascadeSize) []byte {
	b = append(b, "{\n  \"accepted\": "...)
	b = strconv.AppendInt(b, int64(accepted), 10)
	b = append(b, ",\n  \"rejected\": "...)
	b = appendList(b, rejected == nil, len(rejected), func(b []byte, i int) []byte {
		b = append(b, "\n      \"index\": "...)
		b = strconv.AppendInt(b, int64(rejected[i].Index), 10)
		b = append(b, ",\n      \"error\": "...)
		return AppendStringJSON(b, rejected[i].Error)
	})
	b = append(b, ",\n  \"sizes\": {"...)
	slices.SortStableFunc(sizes, func(x, y CascadeSize) int {
		var kx, ky [20]byte
		return bytes.Compare(strconv.AppendInt(kx[:0], int64(x.ID), 10), strconv.AppendInt(ky[:0], int64(y.ID), 10))
	})
	open := len(b)
	for i, cs := range sizes {
		if i+1 < len(sizes) && sizes[i+1].ID == cs.ID {
			continue
		}
		if len(b) > open {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, "\n    \""...), int64(cs.ID), 10)
		b = strconv.AppendInt(append(b, "\": "...), int64(cs.Size), 10)
	}
	if len(b) > open {
		b = append(b, "\n  "...)
	}
	return append(b, "}\n}\n"...)
}

// AppendRankingJSON renders the influencer ranking envelope exactly as
// WriteJSON renders {influencers, cached, generation}: indented, a nil
// ranking as null and an empty one as []. ok=false on a non-finite
// score or weight.
func AppendRankingJSON(b []byte, infs []core.Influencer, cached bool, generation uint64) ([]byte, bool) {
	ok := true
	b = append(b, "{\n  \"influencers\": "...)
	b = appendList(b, infs == nil, len(infs), func(b []byte, i int) []byte {
		var okS, okW bool
		b = append(b, "\n      \"Node\": "...)
		b = strconv.AppendInt(b, int64(infs[i].Node), 10)
		b, okS = AppendFloatJSON(append(b, ",\n      \"Score\": "...), infs[i].Score)
		b = append(b, ",\n      \"TopTopic\": "...)
		b = strconv.AppendInt(b, int64(infs[i].TopTopic), 10)
		b, okW = AppendFloatJSON(append(b, ",\n      \"TopWeight\": "...), infs[i].TopWeight)
		ok = ok && okS && okW
		return b
	})
	b = append(b, ",\n  \"cached\": "...)
	b = strconv.AppendBool(b, cached)
	b = append(b, ",\n  \"generation\": "...)
	b = strconv.AppendUint(b, generation, 10)
	return append(b, "\n}\n"...), ok
}

// ScanRanking scans a shard's ranking envelope — what AppendRankingJSON
// writes — appending the influencers to dst and returning the shard's
// generation. A null ranking leaves dst as it was.
func ScanRanking(b []byte, dst []core.Influencer) (infs []core.Influencer, generation uint64, ok bool) {
	c := cursor{b: b}
	if !c.key("{", `"influencers"`) {
		return dst, 0, false
	}
	null := c.tok("null")
	if !null && !c.tok("[") {
		return dst, 0, false
	}
	for first := true; !null && !c.tok("]"); first = false {
		var inf core.Influencer
		if !first && !c.tok(",") {
			return dst, 0, false
		}
		if inf.Node, ok = c.member("{", `"Node"`); !ok || !c.key(",", `"Score"`) {
			return dst, 0, false
		}
		if inf.Score, ok = c.number(); !ok {
			return dst, 0, false
		}
		if inf.TopTopic, ok = c.member(",", `"TopTopic"`); !ok || !c.key(",", `"TopWeight"`) {
			return dst, 0, false
		}
		if inf.TopWeight, ok = c.number(); !ok || !c.tok("}") {
			return dst, 0, false
		}
		dst = append(dst, inf)
	}
	if !c.key(",", `"cached"`) || !c.tok("true") && !c.tok("false") {
		return dst, 0, false
	}
	gen, ok := c.member(",", `"generation"`)
	return dst, uint64(gen), ok && gen >= 0 && c.tok("}") && c.end()
}

// BatchTallies are the counters a shard's batch envelope carries after
// its slots.
type BatchTallies struct {
	Errors, CacheHits int
	Generation        uint64
}

// SplitBatchEnvelope scans a shard's predict:batch or features:batch
// answer {"results":[slot,...],"count":n,"errors":n,"cache_hits":n,
// "generation":n,"shard_id":n,"epoch":n}, appending the byte range of
// every slot to slots: the router copies those ranges into the merged
// envelope without decoding them. It balances brackets but does not
// validate the slots; run json.Valid over b first.
func SplitBatchEnvelope(b []byte, slots []Span) ([]Span, BatchTallies, bool) {
	c := cursor{b: b}
	if !c.key("{", `"results"`) || !c.tok("[") {
		return slots, BatchTallies{}, false
	}
	for first := true; !c.tok("]"); first = false {
		if !first && !c.tok(",") {
			return slots, BatchTallies{}, false
		}
		c.space()
		lo := c.i
		if !c.skip() {
			return slots, BatchTallies{}, false
		}
		slots = append(slots, Span{lo, c.i})
	}
	var v [6]int
	for i, name := range [...]string{`"count"`, `"errors"`, `"cache_hits"`, `"generation"`, `"shard_id"`, `"epoch"`} {
		var ok bool
		if v[i], ok = c.member(",", name); !ok {
			return slots, BatchTallies{}, false
		}
	}
	return slots, BatchTallies{v[1], v[2], uint64(v[3])}, v[3] >= 0 && c.tok("}") && c.end()
}
