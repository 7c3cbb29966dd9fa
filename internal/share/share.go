// Package share implements multi-query shared inference: a run coalescer that
// lets concurrent feature-transfer runs whose feature-store content address
// (model, weights checksum, image-content checksum) matches share one
// partial-CNN pass.
//
// Vista's Staged plan removes redundant CNN inference *within* one query;
// this package removes it *across* queries — the DB-style multi-query
// optimization the RDBMS-for-ML literature argues for, applied to Vista's
// core contribution. Join never blocks. The first arrival on an identity
// leads its group at once: it goes straight to admission and executes the
// live partial-inference pass, publishing every per-layer feature table into
// the group's in-memory Handoff (and, when a feature store is configured, to
// disk for future runs). An identical run that arrives while the group is
// joinable — within Window of its first arrival, before its last member
// finished — and requests no more layers than the leader follows: it parks
// in AwaitLeader, then attaches the leader's tables without ever opening a DL
// session and finishes its own downstream stages (joins, training)
// independently. The window therefore adds no latency to anyone; it bounds
// who may join a group and how long the group keeps its handoff alive.
//
// The first arrival leads, rather than the member exploring the most layers,
// because electing the deepest member means knowing every member, which means
// making each of them wait out the window — even runs nobody ever joins. The
// pass a follower waits for is the leader's own, already running. A joiner
// that asks for more layers than the leader's pass covers opens a new group
// under the same identity; the old one keeps its members and admits nobody.
//
// A leader that fails or is cancelled mid-pass promotes the parked follower
// requesting the most layers, which resumes from whatever the failed pass
// already published; a follower whose layers the delivering pass did not
// cover is promoted instead of attached.
//
// The Coordinator enforces an exactly-one-outcome invariant mirroring
// internal/admission: Finish counts every member that started executing in
// exactly one of the leader / follower / solo counters (a leader nobody
// joined is a solo), members that give up before running are counted
// aborted, and a group's handoff is freed once its last member finishes.
package share

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/dataflow"
	"repro/internal/featurestore"
	"repro/internal/obs"
)

// Typed errors surfaced by Ticket methods.
var (
	// ErrWaitCancelled means a follower's context was cancelled while it
	// waited for its group's leader; the wrapped error is the context's.
	ErrWaitCancelled = errors.New("share: wait for leader cancelled")
	// ErrGroupFailed means every member that could have executed the shared
	// pass failed; the wrapped error is the last leader's.
	ErrGroupFailed = errors.New("share: every candidate leader failed")
	// ErrJoinCancelled means the caller's context was already done when it
	// called Join.
	ErrJoinCancelled = errors.New("share: join cancelled")
)

// Identity is the sharing key: the featurestore.Key prefix two runs must
// agree on for one run's partial-inference outputs to be exactly the tables
// the other would compute. It is a content address (checksums, not names), so
// mismatched sharing is impossible by construction.
type Identity struct {
	// Model is the roster model name.
	Model string
	// WeightsSum is the hex SHA-256 of the realized weights.
	WeightsSum string
	// DataSum is the hex SHA-256 of the image-table content.
	DataSum string
}

// Member describes one run joining a group, for joinability, promotion and
// the deduplicated-FLOPs accounting.
type Member struct {
	// NumLayers is the run's |L|. Feature layers are selected top-down, so
	// the top-k set of every smaller request is a subset of a k-layer pass:
	// a follower may join a leader requesting at least as many layers.
	NumLayers int
	// InferenceFLOPs estimates the total partial-inference FLOPs this run
	// would spend executing alone (plan FLOPs/image × rows). When the run
	// instead attaches a leader's tables, this much compute was deduplicated.
	InferenceFLOPs int64
}

// Role is a member's execution role.
type Role int

// Roles. Solo is the zero value: a run nobody joined runs exactly as it would
// have without sharing.
const (
	// Solo ran alone: no peer joined its group.
	Solo Role = iota
	// Leader executes the one live partial-inference pass for its group.
	Leader
	// Follower attaches the leader's feature tables and never opens a DL
	// session.
	Follower
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Leader:
		return "leader"
	case Follower:
		return "follower"
	}
	return "solo"
}

// Config sizes a Coordinator.
type Config struct {
	// Window is how long after its first arrival a group accepts identical
	// joiners, and so how long its handoff can be kept alive for them. No run
	// waits for it. Must be positive: a zero window would admit no joiner
	// and share nothing.
	Window time.Duration
	// Metrics, when non-nil, receives the coordinator's observability series
	// (vista_share_*).
	Metrics *obs.Registry
	// Clock is the time source joinability is checked against (nil = the
	// wall clock).
	Clock clock.Clock
}

// Stats is a point-in-time snapshot of a Coordinator's accounting. At
// quiescence Leaders + Followers + Solos counts every run that started
// executing, and Aborted counts every member that gave up before running;
// each member lands in exactly one of the four.
type Stats struct {
	Leaders    int64 // runs that executed the live pass for a group others joined (incl. promoted)
	Followers  int64 // runs that attached a leader's tables
	Solos      int64 // runs that executed alone: nobody joined their group
	Aborted    int64 // members that gave up before starting (admission failure, cancelled wait)
	Promotions int64 // followers promoted to leader after a leader failure
	// Groups counts groups that gained at least one follower.
	Groups int64
	// DedupFLOPs sums the estimated inference FLOPs follower attaches saved.
	DedupFLOPs int64
	// OpenGroups counts groups still accepting joiners, WaitingMembers the
	// followers parked in AwaitLeader, and LiveGroups the groups whose
	// members have not all finished (handoffs not yet freed).
	OpenGroups     int
	WaitingMembers int
	LiveGroups     int
}

// Coordinator groups concurrent runs by Identity and arbitrates handoff
// delivery and promotion. A nil *Coordinator is valid and shares nothing
// (every Join returns a nil ticket, which every Ticket method treats as solo).
type Coordinator struct {
	cfg Config
	clk clock.Clock

	mu sync.Mutex
	// latest is each identity's most recent group; it accepts joiners while
	// joinableLocked says so and is removed when its last member finishes.
	latest map[Identity]*group
	live   int // groups not yet freed
	parked int // followers parked in AwaitLeader

	leaders, followers, solos int64
	aborted, promotions       int64
	groups                    int64
	dedupFLOPs                int64

	sizeHist *obs.Histogram // nil when cfg.Metrics is nil

	// changed, when non-nil, is broadcast (under mu) whenever a follower
	// parks or is woken. Only tests set it: it is the event they wait on for
	// "this follower is parked".
	changed *sync.Cond
}

func (c *Coordinator) notifyLocked() {
	if c.changed != nil {
		c.changed.Broadcast()
	}
}

// New builds a Coordinator and registers its metrics when cfg.Metrics is
// set: per-role run counters (vista_share_runs_total), the group-size
// histogram, promotion/abort counters, and the deduplicated-FLOPs counter.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("share: window must be positive, got %s", cfg.Window)
	}
	c := &Coordinator{cfg: cfg, clk: clock.Or(cfg.Clock), latest: make(map[Identity]*group)}
	if reg := cfg.Metrics; reg != nil {
		role := func(r string, f func(Stats) int64) {
			reg.CounterFunc("vista_share_runs_total",
				"Runs executed under the sharing planner, by the role committed when they finished.",
				func() float64 { return float64(f(c.Stats())) },
				obs.Label{Key: "role", Value: r})
		}
		role("leader", func(s Stats) int64 { return s.Leaders })
		role("follower", func(s Stats) int64 { return s.Followers })
		role("solo", func(s Stats) int64 { return s.Solos })
		reg.CounterFunc("vista_share_aborted_total",
			"Group members that gave up before starting their run.",
			func() float64 { return float64(c.Stats().Aborted) })
		reg.CounterFunc("vista_share_promotions_total",
			"Followers promoted to leader after a leader failure or cancellation.",
			func() float64 { return float64(c.Stats().Promotions) })
		reg.CounterFunc("vista_share_groups_total",
			"Groups that gained at least one follower.",
			func() float64 { return float64(c.Stats().Groups) })
		reg.CounterFunc("vista_share_dedup_flops_total",
			"Estimated CNN inference FLOPs saved by follower attaches.",
			func() float64 { return float64(c.Stats().DedupFLOPs) })
		reg.GaugeFunc("vista_share_open_groups",
			"Groups still accepting joiners.",
			func() float64 { return float64(c.Stats().OpenGroups) })
		reg.GaugeFunc("vista_share_waiting_members",
			"Followers parked waiting for their group's leader.",
			func() float64 { return float64(c.Stats().WaitingMembers) })
		reg.GaugeFunc("vista_share_live_groups",
			"Groups whose handoff is still retained.",
			func() float64 { return float64(c.Stats().LiveGroups) })
		c.sizeHist = reg.Histogram("vista_share_group_size",
			"Members per group, observed when its last member finishes (1 = solo).",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32})
	}
	return c, nil
}

// Stats snapshots the coordinator's accounting. Safe on nil (all zeros).
func (c *Coordinator) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	open := 0
	now := c.clk.Now()
	for _, g := range c.latest {
		if c.acceptsLocked(g, now) {
			open++
		}
	}
	return Stats{
		Leaders:        c.leaders,
		Followers:      c.followers,
		Solos:          c.solos,
		Aborted:        c.aborted,
		Promotions:     c.promotions,
		Groups:         c.groups,
		DedupFLOPs:     c.dedupFLOPs,
		OpenGroups:     open,
		WaitingMembers: c.parked,
		LiveGroups:     c.live,
	}
}

// groupState is the lifecycle of a group's shared pass.
type groupState int

const (
	// leading: the current leader (original or promoted) is executing.
	leading groupState = iota
	// delivered: a leader finished successfully; the handoff covers
	// group.covered layers.
	delivered
	// pendingPromotion: the leader failed and no follower is parked yet; the
	// next follower to call AwaitLeader is promoted on the spot.
	pendingPromotion
	// dead: the leader failed and no candidate follower remains.
	dead
)

// group is one batch of identity-matched runs.
type group struct {
	id     Identity
	opened time.Time // first arrival; joinable until opened + Window
	layers int       // the first arrival's NumLayers: the most a joiner may ask for

	// All fields below are guarded by the Coordinator's mutex.
	members   []*Ticket
	state     groupState
	covered   int   // layers of the pass that delivered (when delivered)
	leaderErr error // last failed leader's error
	handoff   *Handoff
	refs      int // members that have not finished yet
}

// Ticket is one member's handle on its group. Every successfully Joined
// ticket must end with exactly one Finish call, whatever happened in
// between; Finish is idempotent and nil-safe so callers can defer it.
type Ticket struct {
	c *Coordinator
	g *group
	m Member

	// Guarded by c.mu.
	role     Role
	started  bool          // Start was called
	finished bool          // Finish was called (role committed, refcount released)
	attached bool          // follower was handed a covering handoff
	awaiting bool          // parked in AwaitLeader with no verdict yet
	woken    chan struct{} // buffered 1; a parked follower's verdict is ready
}

// Attach is what AwaitLeader returns to a follower once its group's leader
// is done with the shared pass.
type Attach struct {
	// Source serves the group's materialized feature tables (implements
	// core.FeatureSource via Lookup). A follower promoted to leader — its
	// ticket's Role is Leader once AwaitLeader returns — still reads
	// whatever was already published from it, so a promoted run resumes
	// partial progress instead of starting cold.
	Source *Handoff
}

// Join announces a run computing id to the coordinator and returns at once.
// The run follows the identity's latest group when that group is joinable
// (inside its window, still live, not dead) and requests no more layers than
// the group's first arrival; otherwise it opens a new group and leads it.
// The error is non-nil only when ctx is already done (ErrJoinCancelled
// wrapping the context's error). A nil Coordinator returns a nil ticket that
// every method accepts.
func (c *Coordinator) Join(ctx ctxDoner, id Identity, m Member) (*Ticket, error) {
	if c == nil {
		return nil, nil
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %w", ErrJoinCancelled, ctx.Err())
	}
	t := &Ticket{c: c, m: m, woken: make(chan struct{}, 1)}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	g := c.latest[id]
	if g != nil && c.acceptsLocked(g, now) && m.NumLayers <= g.layers {
		t.g, t.role = g, Follower
		g.members = append(g.members, t)
		g.refs++
		if len(g.members) == 2 {
			c.groups++
		}
		return t, nil
	}
	g = &group{id: id, opened: now, layers: m.NumLayers, state: leading, handoff: newHandoff(),
		members: []*Ticket{t}, refs: 1}
	c.latest[id] = g // an older group stays live for its members but admits no one
	c.live++
	t.g, t.role = g, Leader
	return t, nil
}

// acceptsLocked reports whether g still takes joiners at now: inside its
// window and not dead. (A group whose last member finished is no longer in
// latest at all.)
func (c *Coordinator) acceptsLocked(g *group, now time.Time) bool {
	return now.Sub(g.opened) < c.cfg.Window && g.state != dead
}

// ctxDoner is the subset of context.Context this package needs.
type ctxDoner interface {
	Done() <-chan struct{}
	Err() error
}

// Role reports the member's role. The first arrival is Leader from Join on,
// and a follower becomes Leader if AwaitLeader promotes it; Finish commits
// the role, after which a leader nobody joined reports Solo. Nil-safe (Solo).
func (t *Ticket) Role() Role {
	if t == nil {
		return Solo
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.role
}

// GroupSize reports how many members have joined the ticket's group so far
// (1 for a leader nobody joined). Nil-safe.
func (t *Ticket) GroupSize() int {
	if t == nil {
		return 1
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return len(t.g.members)
}

// Source returns the group's handoff for Spec.FeatureSource. Nil-safe.
func (t *Ticket) Source() *Handoff {
	if t == nil {
		return nil
	}
	return t.g.handoff
}

// Sink returns the group's handoff for Spec.FeatureSink — only the member
// currently executing the live pass publishes (nil for followers). Nil-safe.
func (t *Ticket) Sink() *Handoff {
	if t == nil {
		return nil
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.role == Leader {
		return t.g.handoff
	}
	return nil
}

// Start marks the member as executing its run; Finish then counts it under
// its committed role. Call it immediately before the run; a member that
// never Starts is counted aborted. Nil-safe.
func (t *Ticket) Start() {
	if t == nil {
		return
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	t.started = true
}

// AwaitLeader parks a follower until its group's pass is resolved. When a
// leader delivered a pass covering the follower's layers it returns the
// handoff to attach. Otherwise — the leader failed or was cancelled, or its
// pass covered fewer layers — the follower may be promoted: the ticket's Role
// becomes Leader, and Source resumes whatever was already published. The
// error is non-nil when ctx is cancelled while parked (ErrWaitCancelled) or
// when every candidate leader already failed (ErrGroupFailed).
func (t *Ticket) AwaitLeader(ctx ctxDoner) (Attach, error) {
	if t == nil {
		return Attach{}, fmt.Errorf("share: AwaitLeader on a solo ticket")
	}
	c, g := t.c, t.g
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.role != Follower {
		return Attach{}, fmt.Errorf("share: AwaitLeader called by the %s", t.role)
	}
	switch g.state {
	case delivered:
		if t.m.NumLayers > g.covered {
			c.promoteLocked(t)
		} else {
			c.attachLocked(t)
		}
	case pendingPromotion:
		c.promoteLocked(t)
	case dead:
		return Attach{}, fmt.Errorf("%w: %w", ErrGroupFailed, g.leaderErr)
	default:
		t.awaiting = true
		c.parked++
		c.notifyLocked()
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		c.mu.Unlock()
		select {
		case <-t.woken:
			c.mu.Lock()
		case <-done:
			c.mu.Lock()
			if t.awaiting {
				t.awaiting = false
				c.parked--
				c.notifyLocked()
			} else {
				// A verdict raced the cancellation. An attach goes unused; a
				// promotion made this member the leader, and the caller's
				// Finish(err) hands the pass on.
				<-t.woken
			}
			return Attach{}, fmt.Errorf("%w: %w", ErrWaitCancelled, ctx.Err())
		}
	}
	return Attach{Source: g.handoff}, nil
}

// attachLocked hands a follower the covering handoff.
func (c *Coordinator) attachLocked(t *Ticket) {
	t.attached = true
	c.wakeLocked(t)
}

// promoteLocked turns a follower into the group's new leader.
func (c *Coordinator) promoteLocked(t *Ticket) {
	t.role = Leader
	t.g.state = leading
	c.promotions++
	c.wakeLocked(t)
}

// wakeLocked releases a parked follower once its verdict is recorded on the
// ticket; a follower that is not parked reads the verdict directly.
func (c *Coordinator) wakeLocked(t *Ticket) {
	if t.awaiting {
		t.awaiting = false
		c.parked--
		t.woken <- struct{}{}
		c.notifyLocked()
	}
}

// Finish reports the member's run outcome, commits its role to the
// counters, and releases its group resources; the group's handoff is freed
// when the last member finishes. For the current leader, err == nil after
// Start delivers the pass to parked followers; err != nil (or never having
// Started) routes into the promotion machinery: the parked follower with the
// most layers is promoted immediately, otherwise the next AwaitLeader caller
// is. Idempotent and nil-safe, so callers may defer it.
func (t *Ticket) Finish(err error) {
	if t == nil {
		return
	}
	c, g := t.c, t.g
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.finished {
		return
	}
	t.finished = true
	if t.role == Leader && g.state == leading {
		if err == nil && t.started {
			c.deliverLocked(g, t)
		} else {
			if err == nil {
				err = errors.New("share: leader aborted before running")
			}
			g.state = pendingPromotion
			g.leaderErr = err
			c.dispatchPromotionLocked(g)
		}
	}
	if len(g.members) == 1 {
		t.role = Solo
	}
	switch {
	case !t.started:
		c.aborted++
	case t.role == Leader:
		c.leaders++
	case t.role == Follower:
		c.followers++
		if t.attached {
			c.dedupFLOPs += t.m.InferenceFLOPs
		}
	default:
		c.solos++
	}
	g.refs--
	if g.refs == 0 {
		g.handoff.drop()
		c.live--
		if c.latest[g.id] == g {
			delete(c.latest, g.id)
		}
		if c.sizeHist != nil {
			c.sizeHist.Observe(float64(len(g.members)))
		}
	}
}

// deliverLocked completes a pass covering by's layers: parked followers it
// covers attach, and the uncovered follower requesting the most layers, if
// any, is promoted to extend it.
func (c *Coordinator) deliverLocked(g *group, by *Ticket) {
	g.state = delivered
	g.covered = by.m.NumLayers
	var next *Ticket
	for _, m := range g.members {
		switch {
		case !m.awaiting:
		case m.m.NumLayers <= g.covered:
			c.attachLocked(m)
		case next == nil || m.m.NumLayers > next.m.NumLayers:
			next = m
		}
	}
	if next != nil {
		c.promoteLocked(next)
	}
}

// dispatchPromotionLocked hands the leadership to the parked follower
// requesting the most layers, so its pass covers every other parked one;
// otherwise the group stays pendingPromotion for the next AwaitLeader
// caller, or dies when no candidate remains.
func (c *Coordinator) dispatchPromotionLocked(g *group) {
	var next *Ticket
	for _, m := range g.members {
		if m.awaiting && (next == nil || m.m.NumLayers > next.m.NumLayers) {
			next = m
		}
	}
	if next != nil {
		c.promoteLocked(next)
		return
	}
	for _, m := range g.members {
		if m.role == Follower && !m.finished && !m.attached {
			return // a live candidate will call AwaitLeader and self-promote
		}
	}
	g.state = dead
}

// Handoff is one group's in-memory feature fan-out: the leader publishes
// every materialized table into it (core.FeatureSink) and followers attach
// from it (core.FeatureSource) without touching the DL session or the disk
// store. Lookup deep-copies rows so each consumer's engine owns its tensors.
type Handoff struct {
	mu      sync.Mutex
	entries map[featurestore.Key][]dataflow.Row
}

func newHandoff() *Handoff {
	return &Handoff{entries: make(map[featurestore.Key][]dataflow.Row)}
}

// Publish stores rows under k (implements core.FeatureSink). The rows are
// retained by reference, as published — the executor hands over freshly
// projected rows the run never mutates afterwards.
func (h *Handoff) Publish(k featurestore.Key, rows []dataflow.Row) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.entries != nil {
		h.entries[k] = rows
	}
}

// Lookup returns a deep copy of the rows under k (implements
// core.FeatureSource); ok=false on a miss or after the handoff was freed.
func (h *Handoff) Lookup(k featurestore.Key) ([]dataflow.Row, bool) {
	if h == nil {
		return nil, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	rows, ok := h.entries[k]
	if !ok {
		return nil, false
	}
	out := make([]dataflow.Row, len(rows))
	for i := range rows {
		out[i] = rows[i].Clone()
	}
	return out, true
}

// drop frees the handoff's tables once the last group member finished.
func (h *Handoff) drop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries = nil
}
