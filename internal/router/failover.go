package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Failure-detector states, one per ring slot. A slot describes the
// shard *chain* (primary plus optional follower), not one process:
// after a completed failover the promoted follower is the slot's
// target and the slot is healthy again.
const (
	// StateHealthy: the routing target answers probes and is not
	// fenced. Consecutive-failure count is zero.
	StateHealthy = "healthy"
	// StateSuspect: SuspectAfter consecutive probes failed. The slot
	// keeps its target (a partial answer beats a premature promotion)
	// until either a probe succeeds or auto-failover takes over.
	StateSuspect = "suspect"
	// StateFailingOver: the supervisor is mid-cycle — verifying the
	// follower and driving the promote. Probe rounds do not start a
	// second cycle for the slot while one is in flight.
	StateFailingOver = "failing_over"
	// StateQuarantined: the routing target reports itself fenced — it
	// observed a fencing epoch above its own, so its history forked
	// from the fleet's. It is never a write target again; only an
	// operator promote with an explicit epoch can resurrect it.
	StateQuarantined = "quarantined"
)

// failoverBudget bounds one verify+promote cycle. Separate from the
// probe timeout: a promote opens a WAL and flips roles, which is
// allowed to take longer than a readyz round trip.
const failoverBudget = 10 * time.Second

// shardStatus is the operator view of one detector slot, served on the
// router's /readyz under "failure_detector" and mirrored (states and
// epochs) on /metrics.
type shardStatus struct {
	State       string `json:"state"`
	Fails       int    `json:"consecutive_failures"`
	Epoch       uint64 `json:"epoch"`
	Target      string `json:"target"`
	Follower    string `json:"follower,omitempty"`
	Quarantined string `json:"quarantined,omitempty"`
	Failovers   uint64 `json:"failovers"`
}

// slot is the mutable routing state for one ring position.
type slot struct {
	target    Shard  // current routing target; rewritten by failover
	state     string // one of the State* constants
	fails     int    // consecutive failed probes of the target
	epoch     uint64 // highest fencing epoch observed for this chain
	zombie    string // fenced ex-primary kept under observation, "" if none
	failovers uint64 // completed promotions on this slot
}

// detector is the per-shard failure-detector state machine. It owns
// the mutable shard-target layer every request path routes through:
// probes feed it, failover rewrites it, and the data plane reads it —
// all under one lock, so a target swap is atomic against in-flight
// routing decisions.
type detector struct {
	mu           sync.Mutex
	slots        []slot
	suspectAfter int
	auto         bool
}

func newDetector(shards []Shard, suspectAfter int, auto bool) *detector {
	d := &detector{
		slots:        make([]slot, len(shards)),
		suspectAfter: suspectAfter,
		auto:         auto,
	}
	for i, sh := range shards {
		d.slots[i] = slot{target: sh, state: StateHealthy}
	}
	return d
}

// shard returns slot i's current routing target.
func (d *detector) shard(i int) Shard {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.slots[i].target
}

// targets snapshots every slot's routing target for one probe round.
func (d *detector) targets() []Shard {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Shard, len(d.slots))
	for i := range d.slots {
		out[i] = d.slots[i].target
	}
	return out
}

// epoch returns the highest fencing epoch observed for slot i.
func (d *detector) epoch(i int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.slots[i].epoch
}

// epochs snapshots the per-slot epochs, index-aligned with targets.
func (d *detector) epochs() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, len(d.slots))
	for i := range d.slots {
		out[i] = d.slots[i].epoch
	}
	return out
}

// zombies snapshots the quarantined ex-primary addresses, ""-padded,
// index-aligned with the slots.
func (d *detector) zombies() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.slots))
	for i := range d.slots {
		out[i] = d.slots[i].zombie
	}
	return out
}

// quarantinedCount is the /metrics gauge: fenced ex-primaries (and
// fenced routing targets) currently under observation.
func (d *detector) quarantinedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for i := range d.slots {
		if d.slots[i].zombie != "" || d.slots[i].state == StateQuarantined {
			n++
		}
	}
	return n
}

// epochMap is the per-shard epoch gauge set for /metrics.
func (d *detector) epochMap() map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]uint64, len(d.slots))
	for i := range d.slots {
		out[ShardName(i)] = d.slots[i].epoch
	}
	return out
}

// statusMap is the full operator view for the router's /readyz.
func (d *detector) statusMap() map[string]shardStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]shardStatus, len(d.slots))
	for i := range d.slots {
		s := &d.slots[i]
		out[ShardName(i)] = shardStatus{
			State:       s.state,
			Fails:       s.fails,
			Epoch:       s.epoch,
			Target:      s.target.Primary,
			Follower:    s.target.Follower,
			Quarantined: s.zombie,
			Failovers:   s.failovers,
		}
	}
	return out
}

// observe feeds one probe outcome into slot i's state machine and
// reports whether the supervisor should start a failover cycle. The
// transitions:
//
//	healthy     --K consecutive failures--> suspect
//	suspect     --auto + follower-->        failing_over
//	suspect     --probe succeeds-->         healthy
//	any         --target reports fenced-->  quarantined
//	quarantined --auto + follower-->        failing_over
//
// A fenced target short-circuits the K-failure dwell: fencing is a
// positive statement from the node itself that a promotion happened
// elsewhere, not a maybe-transient timeout.
func (d *detector) observe(i int, pr probeResult) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &d.slots[i]
	if pr.Epoch > s.epoch {
		s.epoch = pr.Epoch
	}
	if pr.FencingEpoch > s.epoch {
		s.epoch = pr.FencingEpoch
	}
	if s.state == StateFailingOver {
		return false // one cycle at a time
	}
	switch {
	case pr.Fenced:
		s.state = StateQuarantined
		s.fails++
	case pr.Healthy:
		s.state, s.fails = StateHealthy, 0
		return false
	default:
		s.fails++
		if s.state == StateHealthy && s.fails >= d.suspectAfter {
			s.state = StateSuspect
		}
	}
	if !d.auto || s.target.Follower == "" {
		return false
	}
	if s.state == StateSuspect || s.state == StateQuarantined {
		s.state = StateFailingOver
		return true
	}
	return false
}

// promoted commits a completed failover: the follower becomes the
// slot's target, the dead primary becomes the observed zombie, and the
// slot is healthy at the new epoch.
func (d *detector) promoted(i int, epoch uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &d.slots[i]
	s.zombie = s.target.Primary
	s.target = Shard{Primary: s.target.Follower}
	s.state = StateHealthy
	s.fails = 0
	if epoch > s.epoch {
		s.epoch = epoch
	}
	s.failovers++
}

// abort returns a failing-over slot to suspect so the next probe round
// retries the cycle (the follower may still be catching up).
func (d *detector) abort(i int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.slots[i].state == StateFailingOver {
		d.slots[i].state = StateSuspect
	}
}

// followerState is what the supervisor reads off a follower's /readyz
// before deciding it is safe to promote.
type followerState struct {
	Role        string `json:"role"`
	Status      string `json:"status"`
	Epoch       uint64 `json:"epoch"`
	Fenced      bool   `json:"fenced"`
	Servable    bool   `json:"replication_servable"`
	LagRecords  uint64 `json:"replication_lag_records"`
	Fingerprint string `json:"replication_fingerprint"`
}

// failoverShard drives one detect → verify → promote → fence cycle for
// slot i, which observe() just moved to failing_over. The verify step
// is what separates this from "promote whatever is left": a follower
// that is unreachable, lagging by even one record, or missing its
// chain fingerprint is not promoted — the slot degrades to partial
// answers instead of forking history.
func (rt *Router) failoverShard(ctx context.Context, i int) {
	ctx, cancel := context.WithTimeout(ctx, failoverBudget)
	defer cancel()
	sh := rt.det.shard(i) // pre-failover target: Primary is the suspect, Follower the candidate
	epoch := rt.det.epoch(i)
	st, err := rt.checkFollower(ctx, sh.Follower, epoch)
	if err != nil {
		rt.det.abort(i)
		rt.cfg.Logf("router: %s: follower %s not promotable: %v", ShardName(i), sh.Follower, err)
		return
	}
	// The new epoch must dominate everything either side has seen, so
	// the fence it creates is unambiguous.
	newEpoch := epoch
	if st.Epoch > newEpoch {
		newEpoch = st.Epoch
	}
	newEpoch++
	body, _ := json.Marshal(map[string]uint64{"epoch": newEpoch})
	rep, err := rt.client.do(ctx, http.MethodPost, sh.Follower, "/v1/promote", body)
	if err != nil {
		rt.det.abort(i)
		rt.cfg.Logf("router: %s: promote of %s failed: %v", ShardName(i), sh.Follower, err)
		return
	}
	if rep.status != http.StatusOK {
		rt.det.abort(i)
		rt.cfg.Logf("router: %s: promote of %s answered %d: %s", ShardName(i), sh.Follower, rep.status, truncateBody(rep.body))
		return
	}
	rt.det.promoted(i, newEpoch)
	rt.metrics.failovers.Add(1)
	rt.cfg.Logf("router: %s: promoted %s to primary at epoch %d; quarantined %s",
		ShardName(i), sh.Follower, newEpoch, sh.Primary)
}

// checkFollower verifies the promotion candidate: reachable, serving a
// verified replica (servable with its chain fingerprint present), and
// fully caught up, so no durably-acked event is lost in the failover.
// The probe carries our epoch so the follower's view of the fleet epoch
// is at least ours before the promote lands. A candidate that is
// already a primary at a higher epoch is fine — someone (another router,
// an operator) finished the failover first, and the promote below is an
// idempotent epoch bump.
func (rt *Router) checkFollower(ctx context.Context, follower string, epoch uint64) (followerState, error) {
	var st followerState
	if follower == "" {
		return st, fmt.Errorf("no follower configured")
	}
	rep, err := rt.client.get(ctx, follower, "/readyz", epoch)
	if err != nil {
		return st, err
	}
	if rep.status != http.StatusOK {
		return st, fmt.Errorf("readyz answered %d: %s", rep.status, truncateBody(rep.body))
	}
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return st, fmt.Errorf("undecodable readyz: %w", err)
	}
	if st.Role == "primary" {
		return st, nil // already promoted by another actor; epoch bump only
	}
	if !st.Servable {
		return st, fmt.Errorf("replica not servable (state %q)", st.Status)
	}
	if st.Fingerprint == "" {
		return st, fmt.Errorf("replica reports no chain fingerprint")
	}
	if st.LagRecords > 0 {
		return st, fmt.Errorf("replication lag %d records: only a caught-up follower is promoted", st.LagRecords)
	}
	return st, nil
}

// observeZombies probes each quarantined ex-primary with the slot's
// current epoch. The probe is the fence: a zombie that restarts on its
// old address answers this readyz, latches the higher epoch, and
// refuses writes from then on — no operator step between "the process
// came back" and "it is harmless".
func (rt *Router) observeZombies(ctx context.Context) {
	zombies := rt.det.zombies()
	epochs := rt.det.epochs()
	for i, z := range zombies {
		if z == "" {
			continue
		}
		zctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, _ = rt.client.get(zctx, z, "/readyz", epochs[i]) // best-effort: a dead zombie stays dead
		cancel()
	}
}
