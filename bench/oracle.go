package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
)

// The oracle: before anything is timed, the first operations of every
// stream are run one at a time and each decoded reply is required to
// equal — every float bit for bit — what core.Predictor and core.System
// return when called directly on the prefix the generator knows the
// daemon holds. Behind a router the answer must also come from the
// shard the ring names, and equal that shard's own answer.

type predictReply struct {
	Cascade int     `json:"cascade"`
	Viral   bool    `json:"viral"`
	Margin  float64 `json:"margin"`
	Size    int     `json:"size"`
	ShardID int     `json:"shard_id"`
}

type featuresReply struct {
	Cascade    int     `json:"cascade"`
	DiverA     float64 `json:"diverA"`
	NormA      float64 `json:"normA"`
	MaxA       float64 `json:"maxA"`
	EarlyCount float64 `json:"earlyCount"`
	EarlyRate  float64 `json:"earlyRate"`
	Size       int     `json:"size"`
}

type rateReply struct {
	U    int     `json:"u"`
	V    int     `json:"v"`
	Rate float64 `json:"rate"`
}

type slotReply[T any] struct {
	Result *T     `json:"result"`
	Status int    `json:"status"`
	Error  string `json:"error"`
}

type batchReply[T any] struct {
	Results []slotReply[T] `json:"results"`
	Errors  int            `json:"errors"`
}

func (c *client) wantPredict(s *sut, r ref, got predictReply) error {
	viral, margin, err := c.fx.pred.PredictViral(c.ls.prefix(r.id, r.pos))
	if err != nil {
		return err
	}
	want := predictReply{r.id, viral, margin, r.pos, got.ShardID}
	if got != want {
		return fmt.Errorf("cascade %d: served %+v, predictor says %+v", r.id, got, want)
	}
	if s.router != nil && got.ShardID != s.owner(r.id) {
		return fmt.Errorf("cascade %d: answered by shard %d, ring owner is %d", r.id, got.ShardID, s.owner(r.id))
	}
	return nil
}

func (c *client) wantFeatures(r ref, got featuresReply) error {
	out := make([]core.FeatureResult, 1)
	c.fx.pred.FeaturesBatch([]*cascade.Cascade{c.ls.prefix(r.id, r.pos)}, out)
	if out[0].Err != nil {
		return out[0].Err
	}
	f := out[0].Set
	want := featuresReply{r.id, f.DiverA, f.NormA, f.MaxA, f.EarlyCount, f.EarlyRate, r.pos}
	if got != want {
		return fmt.Errorf("cascade %d: served %+v, extractor says %+v", r.id, got, want)
	}
	return nil
}

func (c *client) wantRate(p [2]int, got rateReply) error {
	if want := (rateReply{p[0], p[1], c.fx.sys.Rate(p[0], p[1])}); got != want {
		return fmt.Errorf("served %+v, model says %+v", got, want)
	}
	return nil
}

// decodeSlots decodes a batch envelope and hands each slot's result to
// want; an error slot is a failure in itself.
func decodeSlots[T any](body []byte, n int, want func(i int, got T) error) error {
	var env batchReply[T]
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	if len(env.Results) != n || env.Errors != 0 {
		return fmt.Errorf("%d slots (%d errors) for %d items", len(env.Results), env.Errors, n)
	}
	for i, slot := range env.Results {
		if slot.Result == nil {
			return fmt.Errorf("slot %d: status %d: %s", i, slot.Status, slot.Error)
		}
		if err := want(i, *slot.Result); err != nil {
			return fmt.Errorf("slot %d: %w", i, err)
		}
	}
	return nil
}

// verify runs one operation through the front door and checks the
// decoded reply against the oracle.
func (c *client) verify(s *sut, o *op) {
	before := c.failed
	c.run(s.entry, o)
	if c.failed != before {
		return
	}
	if err := c.verifyReply(s, o); err != nil {
		c.fail(o, "oracle: %v", err)
	}
}

func (c *client) verifyReply(s *sut, o *op) error {
	body := c.resp.Bytes()
	switch o.class {
	case opPredict:
		var got predictReply
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if err := c.wantPredict(s, o.refs[0], got); err != nil {
			return err
		}
		if s.router == nil {
			return nil
		}
		// The routed bytes must be the owning shard's bytes.
		routed := append([]byte(nil), body...)
		_, path, _ := o.request(nil)
		status, _, err := c.send(s.urls[s.owner(o.refs[0].id)], http.MethodGet, path, nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("owner shard: status %d, %v", status, err)
		}
		if string(routed) != c.resp.String() {
			return fmt.Errorf("routed reply differs from the owning shard's:\n%s\n%s", routed, c.resp.Bytes())
		}
	case opPredictBatch:
		return decodeSlots(body, len(o.refs), func(i int, got predictReply) error {
			return c.wantPredict(s, o.refs[i], got)
		})
	case opFeaturesBatch:
		return decodeSlots(body, len(o.refs), func(i int, got featuresReply) error {
			return c.wantFeatures(o.refs[i], got)
		})
	case opRate:
		var got rateReply
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return c.wantRate(o.pairs[0], got)
	case opRateBatch:
		return decodeSlots(body, len(o.pairs), func(i int, got rateReply) error {
			return c.wantRate(o.pairs[i], got)
		})
	case opCascade:
		var got struct {
			Cascade int   `json:"cascade"`
			Size    int   `json:"size"`
			Nodes   []int `json:"nodes"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := c.ls.prefix(o.refs[0].id, o.refs[0].pos)
		if got.Cascade != want.ID || got.Size != want.Size() || !reflect.DeepEqual(got.Nodes, want.Nodes()) {
			return fmt.Errorf("cascade %d: served size %d nodes %v, fed %v", want.ID, got.Size, got.Nodes, want.Nodes())
		}
	case opEvents:
		var got struct {
			Accepted int            `json:"accepted"`
			Rejected []any          `json:"rejected"`
			Sizes    map[string]int `json:"sizes"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Accepted != len(o.events) || len(got.Rejected) != 0 {
			return fmt.Errorf("accepted %d of %d, rejected %v", got.Accepted, len(o.events), got.Rejected)
		}
		fed := make(map[string]int) // a slot drawn twice advances twice
		for _, a := range o.advances {
			fed[fmt.Sprint(a.id)] = a.pos
		}
		if !reflect.DeepEqual(got.Sizes, fed) {
			return fmt.Errorf("daemon reports sizes %v, fed %v", got.Sizes, fed)
		}
	case opInfluencers:
		var got struct {
			Influencers []core.Influencer `json:"influencers"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if want := c.fx.sys.TopInfluencers(o.k); !reflect.DeepEqual(got.Influencers, want) {
			return fmt.Errorf("k=%d: served ranking differs from System.TopInfluencers", o.k)
		}
	}
	return nil
}
