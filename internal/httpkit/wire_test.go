package httpkit

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"viralcast/internal/core"
	"viralcast/internal/wal"
)

// Every hand codec is held to encoding/json twice: a table of the cases
// the data plane meets (and the near misses the scanners must refuse),
// and a differential fuzz target whose seed corpus is that table, run
// under plain `go test`. The check functions are the shared oracle:
// what a scanner accepts must decode to the same values reflectively,
// and what an encoder emits must be the reflective encoder's bytes.

// encodeIndent is httpkit.WriteJSON's encoding; encodeCompact is the
// same without the indentation pass.
func encodeIndent(t testing.TB, v any) []byte  { return encodeRef(t, v, true) }
func encodeCompact(t testing.TB, v any) []byte { return encodeRef(t, v, false) }

func encodeRef(t testing.TB, v any, indent bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return buf.Bytes()
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkScanCascades(t testing.TB, body []byte) bool {
	got, ok := ScanCascades(body, nil)
	if !ok {
		return false
	}
	var want struct {
		Cascades []int `json:"cascades"`
	}
	if err := DecodeStrict(body, &want); err != nil || want.Cascades == nil {
		t.Fatalf("scanner accepted %q as %v; strict decoder: %v, %v", body, got, want.Cascades, err)
	}
	if len(got) != len(want.Cascades) || (len(got) > 0 && !reflect.DeepEqual(got, want.Cascades)) {
		t.Fatalf("%q: scanner %v, strict decoder %v", body, got, want.Cascades)
	}
	return true
}

func checkScanPairs(t testing.TB, body []byte) bool {
	got, ok := ScanPairs(body, nil)
	if !ok {
		return false
	}
	var want struct {
		Pairs []struct{ U, V int } `json:"pairs"`
	}
	if err := DecodeStrict(body, &want); err != nil || want.Pairs == nil || len(got) != len(want.Pairs) {
		t.Fatalf("scanner accepted %q as %v; strict decoder: %v, %v", body, got, want.Pairs, err)
	}
	for i, p := range want.Pairs {
		if got[i] != [2]int{p.U, p.V} {
			t.Fatalf("%q: pair %d: scanner %v, strict decoder %v", body, i, got[i], p)
		}
	}
	return true
}

func checkScanEvents(t testing.TB, body []byte) bool {
	var spans []Span
	got, ok := ScanEvents(body, nil, &spans)
	if !ok {
		return false
	}
	var want struct {
		Events []wal.Event `json:"events"`
	}
	if err := DecodeStrict(body, &want); err != nil || want.Events == nil || len(got) != len(want.Events) || len(spans) != len(got) {
		t.Fatalf("scanner accepted %q as %v (%d spans); strict decoder: %v, %v", body, got, len(spans), want.Events, err)
	}
	for i, ev := range want.Events {
		if got[i].Cascade != ev.Cascade || got[i].Node != ev.Node || !sameFloat(got[i].Time, ev.Time) {
			t.Fatalf("%q: event %d: scanner %+v, strict decoder %+v", body, i, got[i], ev)
		}
		// The span is what a shard is sent: alone it must be this event.
		var one wal.Event
		if err := DecodeStrict(spans[i].Of(body), &one); err != nil || one.Cascade != ev.Cascade || one.Node != ev.Node || !sameFloat(one.Time, ev.Time) {
			t.Fatalf("%q: span %d %q decodes to %+v (%v), want %+v", body, i, spans[i].Of(body), one, err, ev)
		}
	}
	if without, ok := ScanEvents(body, nil, nil); !ok || len(without) != len(got) {
		t.Fatalf("%q: scanning without spans disagrees: %v %v", body, without, ok)
	}
	return true
}

type rankingBody struct {
	Influencers []core.Influencer `json:"influencers"`
	Cached      bool              `json:"cached"`
	Generation  uint64            `json:"generation"`
}

func sameRanking(a, b []core.Influencer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].TopTopic != b[i].TopTopic ||
			!sameFloat(a[i].Score, b[i].Score) || !sameFloat(a[i].TopWeight, b[i].TopWeight) {
			return false
		}
	}
	return true
}

func checkScanRanking(t testing.TB, body []byte) bool {
	got, gen, ok := ScanRanking(body, nil)
	if !ok {
		return false
	}
	var want rankingBody
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("scanner accepted %q; json.Unmarshal: %v", body, err)
	}
	if gen != want.Generation || !sameRanking(got, want.Influencers) {
		t.Fatalf("%q: scanner (%v, gen %d), json.Unmarshal (%v, gen %d)", body, got, gen, want.Influencers, want.Generation)
	}
	return true
}

func checkSplitBatchEnvelope(t testing.TB, body []byte) bool {
	if !json.Valid(body) { // the router's own precondition
		return false
	}
	slots, tallies, ok := SplitBatchEnvelope(body, nil)
	if !ok {
		return false
	}
	var want struct {
		Results    []json.RawMessage `json:"results"`
		Errors     int               `json:"errors"`
		CacheHits  int               `json:"cache_hits"`
		Generation uint64            `json:"generation"`
	}
	if err := json.Unmarshal(body, &want); err != nil || len(slots) != len(want.Results) {
		t.Fatalf("splitter accepted %q with %d slots; json.Unmarshal: %d slots, %v", body, len(slots), len(want.Results), err)
	}
	for i, raw := range want.Results {
		if !bytes.Equal(slots[i].Of(body), raw) {
			t.Fatalf("%q: slot %d: splitter %q, RawMessage %q", body, i, slots[i].Of(body), raw)
		}
	}
	if tallies != (BatchTallies{want.Errors, want.CacheHits, want.Generation}) {
		t.Fatalf("%q: tallies %+v, json.Unmarshal %+v", body, tallies, want)
	}
	return true
}

func checkAppendFloat(t testing.TB, f float64) {
	got, ok := AppendFloatJSON([]byte("x"), f)
	want, err := json.Marshal(f)
	if ok != (err == nil) {
		t.Fatalf("%v: hand encoder ok=%v, encoding/json err=%v", f, ok, err)
	}
	if !ok && string(got) != "x" {
		t.Fatalf("%v: refused but appended %q", f, got)
	}
	if ok && string(got) != "x"+string(want) {
		t.Fatalf("%v: hand encoder %q, encoding/json %q", f, got[1:], want)
	}
}

func checkAppendString(t testing.TB, s string) {
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendStringJSON([]byte("x"), s); string(got) != "x"+string(want) {
		t.Fatalf("%q: hand encoder %s, encoding/json %s", s, got[1:], want)
	}
}

func checkAppendAck(t testing.TB, accepted int, rejected []EventReject, sizes []CascadeSize) {
	m := make(map[string]int)
	for _, cs := range sizes {
		m[strconv.Itoa(cs.ID)] = cs.Size
	}
	want := encodeIndent(t, map[string]any{"accepted": accepted, "rejected": rejected, "sizes": m})
	if got := AppendAckJSON(nil, accepted, rejected, sizes); !bytes.Equal(got, want) {
		t.Fatalf("ack encoder diverged from WriteJSON:\n%s\nvs\n%s", got, want)
	}
}

func checkAppendRanking(t testing.TB, infs []core.Influencer, cached bool, gen uint64) {
	got, ok := AppendRankingJSON(nil, infs, cached, gen)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(&rankingBody{infs, cached, gen})
	if ok != (err == nil) {
		t.Fatalf("ranking encoder ok=%v, encoding/json err=%v", ok, err)
	}
	if ok && !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("ranking encoder diverged from WriteJSON:\n%s\nvs\n%s", got, buf.Bytes())
	}
	// A generation past MaxInt64 is the one thing the scanner leaves to
	// the reflective decoder.
	if ok && gen <= math.MaxInt64 && !checkScanRanking(t, got) {
		t.Fatalf("ranking scanner refused the ranking encoder's own output:\n%s", got)
	}
}

var cascadeBodies = struct{ accept, refuse []string }{
	accept: []string{
		`{"cascades":[1,2,3]}`,
		`{"cascades":[]}`,
		`{"cascades":[0]}`,
		`{"cascades":[-5, 7 ,   9]}`,
		"\n\t {\"cascades\" : [ 10 , -20 ] } \r\n",
		`{"cascades":[9007199254740991]}`,
		`{"cascades":[9223372036854775807,-9223372036854775808,-0]}`,
	},
	refuse: []string{
		`{"cascades":[1.5]}`,
		`{"cascades":[1.0]}`,
		`{"cascades":[1e3]}`,
		`{"cascades":[01]}`,
		`{"cascades":[1],"extra":2}`,
		`{"cascades":[1]} trailing`,
		`{"cascades":[1]}{"cascades":[2]}`,
		`{"cascades":[1,]}`,
		`{"cascades":[--1]}`,
		`{"cascades":[]}{}`,
		`{"Cascades":[1]}`,
		`{"cascades":null}`,
		`["cascades"]`,
		`{"cascades":[99999999999999999999]}`,
		`{"cascades":[9223372036854775808]}`,
		`{"cascades":[1`,
		``,
	},
}

// TestScanCascades checks the scanner takes the fast path on every
// canonical body, agrees with the strict decoder there, and hands
// everything else back.
func TestScanCascades(t *testing.T) {
	for _, body := range cascadeBodies.accept {
		if !checkScanCascades(t, []byte(body)) {
			t.Fatalf("scanner refused canonical body %q", body)
		}
	}
	for _, body := range cascadeBodies.refuse {
		if got, ok := ScanCascades([]byte(body), nil); ok {
			t.Fatalf("scanner accepted non-canonical body %q as %v", body, got)
		}
	}
}

func FuzzScanCascades(f *testing.F) {
	for _, body := range append(cascadeBodies.accept, cascadeBodies.refuse...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkScanCascades(t, body) })
}

var pairBodies = struct{ accept, refuse []string }{
	accept: []string{
		`{"pairs":[{"u":1,"v":2},{"u":3,"v":999}]}`,
		`{"pairs":[]}`,
		` { "pairs" : [ { "u" : -3 , "v" : 0 } ] } `,
	},
	refuse: []string{
		`{"pairs":[{"v":2,"u":1}]}`,
		`{"pairs":[{"U":1,"V":2}]}`,
		`{"pairs":[{"u":1}]}`,
		`{"pairs":[{"u":1,"v":2,"w":3}]}`,
		`{"pairs":[{"u":1.0,"v":2}]}`,
		`{"pairs":[{"u":1,"v":2}]} x`,
		`{"pairs":null}`,
		`{"pairs":[[1,2]]}`,
	},
}

func TestScanPairs(t *testing.T) {
	for _, body := range pairBodies.accept {
		if !checkScanPairs(t, []byte(body)) {
			t.Fatalf("scanner refused canonical body %q", body)
		}
	}
	for _, body := range pairBodies.refuse {
		if got, ok := ScanPairs([]byte(body), nil); ok {
			t.Fatalf("scanner accepted non-canonical body %q as %v", body, got)
		}
	}
}

func FuzzScanPairs(f *testing.F) {
	for _, body := range append(pairBodies.accept, pairBodies.refuse...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkScanPairs(t, body) })
}

var eventBodies = struct{ accept, refuse []string }{
	accept: []string{
		`{"events":[{"cascade":7,"node":3,"time":0.25}]}`,
		`{"events":[{"cascade":7,"node":3,"time":1},{"cascade":8,"node":0,"time":1.5e-07},{"cascade":8,"node":1,"time":1E+2}]}`,
		`{"events":[]}`,
		"{ \"events\" : [ { \"cascade\" : 1 , \"node\" : 2 , \"time\" : -0 } ,\n {\"cascade\":1,\"node\":3,\"time\":4.9e-324} ] }\n",
		`{"events":[{"cascade":-1,"node":-2,"time":-3.5}]}`,
		`{"events":[{"cascade":1,"node":2,"time":0.1000000000000000055511151231257827}]}`,
	},
	refuse: []string{
		`{"cascade":7,"node":3,"time":0.25}`, // the bare single event
		`{"events":[{"node":3,"cascade":7,"time":0.25}]}`,
		`{"events":[{"Cascade":7,"node":3,"time":0.25}]}`,
		`{"events":[{"cascade":7.0,"node":3,"time":0.25}]}`,
		`{"events":[{"cascade":7,"node":3e0,"time":0.25}]}`,
		`{"events":[{"cascade":7,"node":3,"time":1e999}]}`,
		`{"events":[{"cascade":7,"node":3,"time":.5}]}`,
		`{"events":[{"cascade":7,"node":3,"time":01}]}`,
		`{"events":[{"cascade":7,"node":3,"time":1.}]}`,
		`{"events":[{"cascade":7,"node":3,"time":"1"}]}`,
		`{"events":[{"cascade":7,"node":3}]}`,
		`{"events":[{"cascade":7,"node":3,"time":1,"extra":0}]}`,
		`{"events":[{"cascade":7,"node":3,"time":1}]}garbage`,
		`{"events":[{"cascade":7,"node":3,"time":1},]}`,
		`{"events":["cascade":7,"node":3,"time":1}]}`,
		`{"events":[{"cascade":7,"node":3,"time":1]}`,
		`{"events":null}`,
		`{}`,
	},
}

func TestScanEvents(t *testing.T) {
	for _, body := range eventBodies.accept {
		if !checkScanEvents(t, []byte(body)) {
			t.Fatalf("scanner refused canonical body %q", body)
		}
	}
	for _, body := range eventBodies.refuse {
		if got, ok := ScanEvents([]byte(body), nil, nil); ok {
			t.Fatalf("scanner accepted non-canonical body %q as %v", body, got)
		}
	}
}

func FuzzScanEvents(f *testing.F) {
	for _, body := range append(eventBodies.accept, eventBodies.refuse...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkScanEvents(t, body) })
}

// TestDecodeStrictRejectsTrailingBytes: the fallback decoder is as
// strict about what follows the value as the scanners in front of it.
func TestDecodeStrictRejectsTrailingBytes(t *testing.T) {
	var v struct {
		Cascades []int `json:"cascades"`
	}
	for _, body := range []string{
		`{"cascades":[1,2]} trailing garbage {`,
		`{"cascades":[1]}{"cascades":[2]}`,
		`{"cascades":[1]}}`,
		`{"cascades":[1]}]`,
		"{\"cascades\":[1]}\v",
	} {
		if err := DecodeStrict([]byte(body), &v); err == nil {
			t.Fatalf("DecodeStrict accepted %q", body)
		}
	}
	if err := DecodeStrict([]byte("  {\"cascades\":[1]} \r\n\t"), &v); err != nil {
		t.Fatalf("DecodeStrict refused trailing whitespace: %v", err)
	}
}

var rankingValues = [][]core.Influencer{
	nil,
	{},
	{{Node: 3, Score: 2.5, TopTopic: 1, TopWeight: 1.25}},
	{{Node: 0, Score: 1e21, TopTopic: 0, TopWeight: 9.9e-7}, {Node: 149, Score: -0.0, TopTopic: 7, TopWeight: 4.9e-324},
		{Node: -1, Score: math.MaxFloat64, TopTopic: -2, TopWeight: 0.1}},
}

func TestRankingCodec(t *testing.T) {
	for _, infs := range rankingValues {
		checkAppendRanking(t, infs, false, 0)
		checkAppendRanking(t, infs, true, math.MaxUint64>>1)
	}
	checkAppendRanking(t, []core.Influencer{{Score: math.NaN()}}, false, 1)
	checkAppendRanking(t, []core.Influencer{{Node: 1, Score: 1}, {TopWeight: math.Inf(-1)}}, false, 1)
	for _, body := range []string{
		`{"influencers":[{"Node":1,"Score":2,"TopTopic":0,"TopWeight":1}],"cached":false,"generation":1,"partial":true}`,
		`{"influencers":[{"node":1,"Score":2,"TopTopic":0,"TopWeight":1}],"cached":false,"generation":1}`,
		`{"influencers":[{"Node":1,"Score":2,"TopTopic":0,"TopWeight":1},],"cached":false,"generation":1}`,
		`{"influencers":[null],"cached":false,"generation":1}`,
		`{"influencers":[],"cached":false,"generation":-1}`,
		`{"influencers":[],"cached":0,"generation":1}`,
		`{"influencers":[],"cached":false,"generation":1} x`,
		`{"error":"boom"}`,
	} {
		if _, _, ok := ScanRanking([]byte(body), nil); ok {
			t.Fatalf("ranking scanner accepted %q", body)
		}
	}
}

func FuzzScanRanking(f *testing.F) {
	for _, infs := range rankingValues {
		f.Add(encodeIndent(f, &rankingBody{infs, true, 3}))
		f.Add(encodeCompact(f, &rankingBody{infs, false, 0}))
	}
	f.Add([]byte(`{"influencers":[],"cached":false,"generation":-1}`))
	f.Fuzz(func(t *testing.T, body []byte) { checkScanRanking(t, body) })
}

// fuzzRanking derives a ranking from raw bytes, 24 per influencer.
func fuzzRanking(raw []byte) []core.Influencer {
	if len(raw) == 0 {
		return nil
	}
	infs := []core.Influencer{}
	for ; len(raw) >= 24; raw = raw[24:] {
		infs = append(infs, core.Influencer{
			Node:      int(int32(binary.LittleEndian.Uint32(raw))),
			TopTopic:  int(int32(binary.LittleEndian.Uint32(raw[4:]))),
			Score:     math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])),
			TopWeight: math.Float64frombits(binary.LittleEndian.Uint64(raw[16:])),
		})
	}
	return infs
}

func FuzzAppendRankingJSON(f *testing.F) {
	f.Add([]byte{}, false, uint64(0))
	f.Add([]byte{1}, true, uint64(7))
	f.Add(bytes.Repeat([]byte{0x3f, 0xf0, 0x01}, 24), true, uint64(math.MaxUint64))
	f.Add(bytes.Repeat([]byte{0xff}, 48), false, uint64(1))
	f.Fuzz(func(t *testing.T, raw []byte, cached bool, gen uint64) {
		checkAppendRanking(t, fuzzRanking(raw), cached, gen)
	})
}

var envelopeBodies = struct{ accept, refuse []string }{
	accept: []string{
		`{"results":[{"result":{"cascade":1,"viral":true,"margin":0.5}},{"status":404,"error":"no live cascade 9"}],"count":2,"errors":1,"cache_hits":1,"generation":3,"shard_id":2,"epoch":0}` + "\n",
		`{"results":[],"count":0,"errors":0,"cache_hits":0,"generation":0,"shard_id":-1,"epoch":0}`,
		`{"results":[{"status":422,"error":"tricky ] } , \" \\ [ {"},1,"s",null,[1,[2]],true],"count":6,"errors":1,"cache_hits":0,"generation":1,"shard_id":0,"epoch":9}`,
		"{ \"results\" : [ {\"a\" : [ ] } , 2 ] , \"count\" : 2 , \"errors\" : 0 , \"cache_hits\" : 0 , \"generation\" : 5 , \"shard_id\" : 1 , \"epoch\" : 1 }",
	},
	refuse: []string{
		`{"results":[1],"count":1,"errors":0,"cache_hits":0,"generation":1}`,
		`{"results":[1],"errors":0,"count":1,"cache_hits":0,"generation":1,"shard_id":0,"epoch":0}`,
		`{"Results":[1],"count":1,"errors":0,"cache_hits":0,"generation":1,"shard_id":0,"epoch":0}`,
		`{"results":[1],"count":1,"errors":0,"cache_hits":0,"generation":-1,"shard_id":0,"epoch":0}`,
		`{"results":[1],"count":1,"errors":0,"cache_hits":0,"generation":1,"shard_id":0,"epoch":0,"errors":7}`,
		`{"results":null,"count":0,"errors":0,"cache_hits":0,"generation":1,"shard_id":0,"epoch":0}`,
		`{"results":[1,],"count":1,"errors":0,"cache_hits":0,"generation":1,"shard_id":0,"epoch":0}`,
		`{"error":"batch of 5 cascades exceeds the daemon's limit 4"}`,
		`[]`,
	},
}

func TestSplitBatchEnvelope(t *testing.T) {
	for _, body := range envelopeBodies.accept {
		if !checkSplitBatchEnvelope(t, []byte(body)) {
			t.Fatalf("splitter refused a shard envelope: %q", body)
		}
	}
	for _, body := range envelopeBodies.refuse {
		if slots, _, ok := SplitBatchEnvelope([]byte(body), nil); ok {
			t.Fatalf("splitter accepted %q as %d slots", body, len(slots))
		}
	}
}

func FuzzSplitBatchEnvelope(f *testing.F) {
	for _, body := range append(envelopeBodies.accept, envelopeBodies.refuse...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkSplitBatchEnvelope(t, body) })
}

var floatValues = []float64{
	0, math.Copysign(0, -1), 0.1, -2.235795019273291, 1e-6, 9.9e-7, -9.9e-7, 1e21, 9.999999999999999e20,
	-1.2345678e22, 1e20, 4.9e-324, math.MaxFloat64, 5063, -1.5e-9, 1e-10, 1e-100, 2.2857142857142856,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendFloatJSON(t *testing.T) {
	for _, f := range floatValues {
		checkAppendFloat(t, f)
	}
}

func FuzzAppendFloatJSON(f *testing.F) {
	for _, v := range floatValues {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) { checkAppendFloat(t, v) })
}

var stringValues = []string{
	"", "no live cascade 42", `tricky <escape> & "quote" \ tab` + "\there\nnewline\r \x01 ünïcode",
	"line sep \u2028\u2029", "bad utf8 \xff\xfe tail", "\b\f\x00\x1f\x7f", "truncated \xe2\x80", strings.Repeat("é", 40),
}

// TestAppendStringJSON includes the divergences the first fuzz run
// found in the encoder this one replaces: U+2028/U+2029 and invalid
// UTF-8 passed through raw, and \b, \f written as \u0008, \u000c where
// encoding/json (since Go 1.22) writes the short forms.
func TestAppendStringJSON(t *testing.T) {
	for _, s := range stringValues {
		checkAppendString(t, s)
	}
}

func FuzzAppendStringJSON(f *testing.F) {
	for _, s := range stringValues {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkAppendString(t, s) })
}

func TestAppendAckJSON(t *testing.T) {
	rejects := []EventReject{{Index: 3, Error: "node 7 already infected in cascade 9 (SI process forbids re-infection)"}, {Index: -1, Error: `a "quoted" <tag>`}}
	checkAppendAck(t, 0, nil, nil)             // a shard that took nothing: null, {}
	checkAppendAck(t, 0, []EventReject{}, nil) // the router's: [], {}
	checkAppendAck(t, 2, rejects[:1], []CascadeSize{{9, 4}})
	checkAppendAck(t, 64, rejects, []CascadeSize{{9, 1}, {10, 2}, {100, 3}, {1, 4}, {0, 5}, {99, 6}, {1000000, 7}, {19, 8}, {-1, 9}, {-10, 0}})
	// String order, not numeric: "10" < "9"; and a cascade reported
	// twice keeps its last size.
	got := string(AppendAckJSON(nil, 3, nil, []CascadeSize{{9, 1}, {10, 1}, {9, 2}}))
	if want := "{\n  \"accepted\": 3,\n  \"rejected\": null,\n  \"sizes\": {\n    \"10\": 1,\n    \"9\": 2\n  }\n}\n"; got != want {
		t.Fatalf("ack = %q, want %q", got, want)
	}
}

func FuzzAppendAckJSON(f *testing.F) {
	f.Add(0, uint8(0), 0, "", []byte{})
	f.Add(64, uint8(1), 5, "node 3 outside the model's universe [0,150)", []byte{9, 0, 1, 10, 0, 2, 9, 0, 3})
	f.Add(-1, uint8(3), -7, "<&>\"\\\n ", []byte{255, 255, 9, 0, 1, 0})
	f.Fuzz(func(t *testing.T, accepted int, nrej uint8, index int, msg string, raw []byte) {
		var rejected []EventReject
		if nrej%4 > 0 {
			rejected = []EventReject{}
			for i := 1; i < int(nrej%4); i++ {
				rejected = append(rejected, EventReject{Index: index + i, Error: msg})
			}
		}
		var sizes []CascadeSize
		for ; len(raw) >= 3; raw = raw[3:] {
			sizes = append(sizes, CascadeSize{ID: int(int16(uint16(raw[0]) | uint16(raw[1])<<8)), Size: int(raw[2])})
		}
		checkAppendAck(t, accepted, rejected, sizes)
	})
}
