package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"viralcast/internal/httpkit"
)

// Shard is one ring member: the primary daemon's base URL and,
// optionally, the base URL of its replication follower (internal/repl).
// The follower is a read-only understudy — the router retries idempotent
// reads against it when the primary fails, and never sends it ingestion
// (a follower 409s writes by design).
type Shard struct {
	Primary  string
	Follower string
}

// maxRelayBytes bounds how much of a shard response the router will
// buffer for relay or merging; a response past this is a shard bug,
// not a bigger buffer's job.
const maxRelayBytes = 64 << 20

// reply is one shard HTTP exchange, buffered for relay or decoding.
// retryAfter carries a shedding shard's Retry-After, without which a
// relayed 429 tells the client to back off but not for how long.
type reply struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// client is the router's HTTP access to the fleet. All calls propagate
// the caller's context, so the per-request budget and client
// disconnects bound every shard call.
type client struct {
	hc      *http.Client
	metrics *Metrics
}

func newClient(m *Metrics) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}},
		metrics: m,
	}
}

// do performs one HTTP exchange against base. Any HTTP status is a
// successful exchange (the shard answered; 4xx/5xx bodies are relayed
// to the client as-is) — an error means transport failure: the shard
// is unreachable, the connection died, or the context expired.
func (c *client) do(ctx context.Context, method, base, path string, body []byte) (*reply, error) {
	return c.doEpoch(ctx, method, base, path, body, 0, nil)
}

// doEpoch is do with the fencing-epoch header stamped (0 omits it) and
// the answer read into buf[:0] (nil allocates). The transport may still
// be reading body when doEpoch returns (a shard can answer before it has
// consumed the request), so body must not be reused afterwards.
func (c *client) doEpoch(ctx context.Context, method, base, path string, body []byte, epoch uint64, buf []byte) (*reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(base, "/")+path, rd)
	if err != nil {
		return nil, fmt.Errorf("building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if epoch > 0 {
		req.Header.Set(httpkit.EpochHeader, strconv.FormatUint(epoch, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readReply(resp, buf[:0])
	if err != nil {
		return nil, err
	}
	return &reply{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        data,
	}, nil
}

// readReply reads a shard's answer into buf, grown once to the declared
// Content-Length instead of by io.ReadAll's doubling.
func readReply(resp *http.Response, buf []byte) ([]byte, error) {
	b := bytes.NewBuffer(buf)
	if n := resp.ContentLength; n > 0 && n <= maxRelayBytes {
		b.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare before it will believe in EOF
	}
	if _, err := b.ReadFrom(io.LimitReader(resp.Body, maxRelayBytes+1)); err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if b.Len() > maxRelayBytes {
		return nil, fmt.Errorf("response exceeds relay limit %d bytes", maxRelayBytes)
	}
	return b.Bytes(), nil
}

// read performs an idempotent GET against a shard: the primary first;
// if that exchange fails and the shard has a follower, the same GET
// against the follower after a jittered pause, so a fleet-wide primary
// failure does not convert into a synchronized follower stampede. A slow
// primary is waited for (within the caller's budget), never raced.
// Reads are safe to repeat; ingestion never comes here.
func (c *client) read(ctx context.Context, sh Shard, path string) (*reply, error) {
	rep, err := c.do(ctx, http.MethodGet, sh.Primary, path, nil)
	if err == nil || sh.Follower == "" {
		return rep, err
	}
	pause := time.NewTimer(retryJitter())
	defer pause.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-pause.C:
	}
	c.metrics.followerRetries.Add(1)
	if rep, ferr := c.do(ctx, http.MethodGet, sh.Follower, path, nil); ferr == nil {
		return rep, nil
	}
	return nil, fmt.Errorf("primary and follower both failed: %w", err)
}

// retryJitter is the pause before a follower retry: uniform in
// [5ms, 30ms), enough to decorrelate a thundering herd without
// burning a visible slice of the request budget.
func retryJitter() time.Duration {
	return 5*time.Millisecond + time.Duration(rand.Int63n(int64(25*time.Millisecond)))
}

// get performs an epoch-stamped GET against one concrete base URL —
// no follower fallback. The failure detector and the
// zombie fencer use it: both need to know about *this* process, not
// whether anything in the chain can answer.
func (c *client) get(ctx context.Context, base, path string, epoch uint64) (*reply, error) {
	return c.doEpoch(ctx, http.MethodGet, base, path, nil, epoch, nil)
}

// probeResult is what the health prober learned about one shard.
type probeResult struct {
	Healthy       bool    `json:"healthy"`
	Misconfigured bool    `json:"misconfigured,omitempty"`
	ShardID       int     `json:"shard_id"`
	RingSize      int     `json:"ring_size"`
	Status        string  `json:"status,omitempty"`
	Role          string  `json:"role,omitempty"`
	Generation    uint64  `json:"generation,omitempty"`
	Nodes         int     `json:"nodes,omitempty"`
	Epoch         uint64  `json:"epoch"`
	Fenced        bool    `json:"fenced,omitempty"`
	FencingEpoch  uint64  `json:"fencing_epoch,omitempty"`
	Error         string  `json:"error,omitempty"`
	AgeSeconds    float64 `json:"age_seconds"`
}

// probe asks one shard's /readyz for its identity and compares it to
// the ring slot the router put it in. A shard claiming a different
// slot (or a different fleet size) is flagged misconfigured — merging
// its stripe would silently corrupt the global ranking, which is
// exactly the failure the shard_id/ring_size fields exist to prevent.
// A standalone daemon (shard_id -1, ring_size 0) is accepted only in a
// one-shard ring, where its full-universe answers are the stripe.
//
// The probe goes to the slot's routing target directly — never the
// follower — because it feeds the failure detector: "the follower can
// answer reads" must not mask "the primary is dead". It carries the
// router's epoch for the slot, and reads the target's fencing surface
// back; a target that reports itself fenced is never healthy — its
// writes are being refused, so routing ingest at it is a black hole.
func (c *client) probe(ctx context.Context, index, fleet int, sh Shard, epoch uint64) probeResult {
	rep, err := c.get(ctx, sh.Primary, "/readyz", epoch)
	if err != nil {
		return probeResult{ShardID: -1, Error: err.Error()}
	}
	var ready struct {
		Status       string `json:"status"`
		Role         string `json:"role"`
		ShardID      *int   `json:"shard_id"`
		RingSize     int    `json:"ring_size"`
		Generation   uint64 `json:"generation"`
		Nodes        int    `json:"nodes"`
		Epoch        uint64 `json:"epoch"`
		Fenced       bool   `json:"fenced"`
		FencingEpoch uint64 `json:"fencing_epoch"`
	}
	if uerr := json.Unmarshal(rep.body, &ready); uerr != nil || ready.ShardID == nil {
		return probeResult{ShardID: -1, Error: fmt.Sprintf("readyz status %d is not a shard-aware body: %v", rep.status, uerr)}
	}
	pr := probeResult{
		ShardID:      *ready.ShardID,
		RingSize:     ready.RingSize,
		Status:       ready.Status,
		Role:         ready.Role,
		Generation:   ready.Generation,
		Nodes:        ready.Nodes,
		Epoch:        ready.Epoch,
		Fenced:       ready.Fenced,
		FencingEpoch: ready.FencingEpoch,
	}
	if rep.status != http.StatusOK {
		pr.Error = fmt.Sprintf("readyz answered %d", rep.status)
		return pr
	}
	standalone := pr.ShardID == -1 && pr.RingSize == 0 && fleet == 1
	if !standalone && (pr.ShardID != index || pr.RingSize != fleet) {
		pr.Misconfigured = true
		pr.Error = fmt.Sprintf("shard reports shard_id=%d ring_size=%d but the router placed it at slot %d of %d",
			pr.ShardID, pr.RingSize, index, fleet)
		return pr
	}
	if pr.Fenced {
		pr.Error = fmt.Sprintf("fenced at epoch %d by fencing epoch %d", pr.Epoch, pr.FencingEpoch)
		return pr
	}
	pr.Healthy = true
	return pr
}
