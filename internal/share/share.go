// Package share implements multi-query shared inference: a sharing planner
// and run coalescer that batches concurrent feature-transfer runs whose
// feature-store content address (model, weights checksum, image-content
// checksum) matches into one shared partial-CNN pass.
//
// Vista's Staged plan removes redundant CNN inference *within* one query;
// this package removes it *across* queries — the DB-style multi-query
// optimization the RDBMS-for-ML literature argues for, applied to Vista's
// core contribution. Runs announce themselves to a Coordinator while they
// would otherwise wait independently; runs that agree on what they compute
// are grouped during a short window. The group elects a leader — the member
// exploring the most feature layers, so its pass is a superset of everyone
// else's — which executes one live partial-inference pass and publishes every
// per-layer feature table into the group's in-memory Handoff (and, when a
// feature store is configured, to disk for future runs). Followers attach the
// leader's tables without ever opening a DL session and finish their own
// downstream stages (joins, training) independently. A leader that fails or
// is cancelled mid-pass promotes the next live follower, which resumes from
// whatever the failed pass already published.
//
// The Coordinator enforces an exactly-one-outcome invariant mirroring
// internal/admission: every run that starts executing under a sealed group is
// counted in exactly one of the leader / follower / solo counters, members
// that give up before running are counted aborted, and group handoffs are
// freed once the last member finishes.
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
	// ErrJoinCancelled means the caller's context was cancelled while its
	// group's window was still open.
	ErrJoinCancelled = errors.New("share: join cancelled before group sealed")
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

// Member describes one run joining a group, for leader election and the
// deduplicated-FLOPs accounting.
type Member struct {
	// NumLayers is the run's |L|; the member with the largest value leads,
	// because feature layers are selected top-down: the top-k set of every
	// smaller request is a subset of the leader's, so one pass to the max
	// requested layer covers every follower.
	NumLayers int
	// InferenceFLOPs estimates the total partial-inference FLOPs this run
	// would spend executing alone (plan FLOPs/image × rows). When the run
	// instead attaches a leader's tables, this much compute was deduplicated.
	InferenceFLOPs int64
}

// Role is a sealed member's execution role.
type Role int

// Roles. Solo is the zero value: a member whose window expired with no peers
// runs exactly as it would have without sharing.
const (
	// Solo runs alone: no peer matched its identity within the window.
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
	// Window is how long the first arrival holds its group open for more
	// identical runs. Must be positive: a zero window would seal every group
	// at size one and share nothing.
	Window time.Duration
	// MaxGroup seals a group early once it reaches this many members
	// (0 = unbounded; the window is the only trigger).
	MaxGroup int
	// Metrics, when non-nil, receives the coordinator's observability series
	// (vista_share_*).
	Metrics *obs.Registry
	// Clock is the time source for the batching window (nil = the wall
	// clock). Tests inject clock.NewFake() to seal groups deterministically.
	Clock clock.Clock
}

// Stats is a point-in-time snapshot of a Coordinator's accounting. At
// quiescence Leaders + Followers + Solos counts every run that started
// executing, and Aborted counts every member that sealed into a group but
// gave up before running; each sealed member lands in exactly one of the
// four.
type Stats struct {
	Leaders    int64 // runs that executed the live pass for a group (incl. promoted)
	Followers  int64 // runs that attached a leader's tables
	Solos      int64 // runs that sealed alone and executed normally
	Aborted    int64 // members that gave up before starting (admission failure, cancelled wait)
	Promotions int64 // followers promoted to leader after a leader failure
	// Groups counts sealed groups with at least two members.
	Groups int64
	// DedupFLOPs sums the estimated inference FLOPs follower attaches saved.
	DedupFLOPs int64
	// OpenGroups and WaitingMembers describe groups still inside their
	// window; LiveGroups counts sealed groups whose members have not all
	// finished (handoffs not yet freed).
	OpenGroups     int
	WaitingMembers int
	LiveGroups     int
}

// Coordinator groups concurrent runs by Identity and arbitrates leader
// election, handoff delivery, and promotion. A nil *Coordinator is valid and
// shares nothing (every Join returns a Solo ticket with no group).
type Coordinator struct {
	cfg Config
	clk clock.Clock

	mu   sync.Mutex
	open map[Identity]*group // groups still inside their window
	live int                 // sealed groups not yet freed

	leaders, followers, solos int64
	aborted, promotions       int64
	groups                    int64
	dedupFLOPs                int64
	waiting                   int

	sizeHist *obs.Histogram // nil when cfg.Metrics is nil

	// changed, when non-nil, is broadcast (under mu) whenever waiting or a
	// ticket's awaiting changes. Only tests set it: it is the event they wait
	// on for "n members are inside Join" or "this follower is parked".
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
	if cfg.MaxGroup < 0 {
		return nil, fmt.Errorf("share: max group must be >= 0, got %d", cfg.MaxGroup)
	}
	c := &Coordinator{cfg: cfg, clk: clock.Or(cfg.Clock), open: make(map[Identity]*group)}
	if reg := cfg.Metrics; reg != nil {
		role := func(r string, f func(Stats) int64) {
			reg.CounterFunc("vista_share_runs_total",
				"Runs executed under the sharing planner, by sealed role.",
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
			"Sealed groups with at least two members.",
			func() float64 { return float64(c.Stats().Groups) })
		reg.CounterFunc("vista_share_dedup_flops_total",
			"Estimated CNN inference FLOPs saved by follower attaches.",
			func() float64 { return float64(c.Stats().DedupFLOPs) })
		reg.GaugeFunc("vista_share_open_groups",
			"Groups still inside their batching window.",
			func() float64 { return float64(c.Stats().OpenGroups) })
		reg.GaugeFunc("vista_share_waiting_members",
			"Runs waiting for their group's window to close.",
			func() float64 { return float64(c.Stats().WaitingMembers) })
		reg.GaugeFunc("vista_share_live_groups",
			"Sealed groups whose handoff is still retained.",
			func() float64 { return float64(c.Stats().LiveGroups) })
		c.sizeHist = reg.Histogram("vista_share_group_size",
			"Members per sealed group (1 = solo).",
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
	return Stats{
		Leaders:        c.leaders,
		Followers:      c.followers,
		Solos:          c.solos,
		Aborted:        c.aborted,
		Promotions:     c.promotions,
		Groups:         c.groups,
		DedupFLOPs:     c.dedupFLOPs,
		OpenGroups:     len(c.open),
		WaitingMembers: c.waiting,
		LiveGroups:     c.live,
	}
}

// groupState is the post-seal lifecycle of a multi-member group.
type groupState int

const (
	// leading: the current leader (original or promoted) is executing.
	leading groupState = iota
	// delivered: the leader finished successfully; the handoff is complete.
	delivered
	// pendingPromotion: the leader failed and no follower is parked yet; the
	// next follower to call AwaitLeader is promoted on the spot.
	pendingPromotion
	// dead: the leader failed and no candidate follower remains.
	dead
)

// group is one batch of identity-matched runs.
type group struct {
	id      Identity
	sealeds chan struct{} // closed at seal; Join waits on it
	timer   clock.Timer   // window timer; stopped once sealed

	// All fields below are guarded by the Coordinator's mutex.
	members   []*Ticket
	sealed    bool
	state     groupState
	leaderErr error    // last failed leader's error
	handoff   *Handoff // nil for solo groups
	refs      int      // members that have not finished/aborted yet
}

// Ticket is one member's handle on its group. Every successfully Joined
// ticket must end with exactly one Finish call, whatever happened in
// between; Finish is idempotent and nil-safe so callers can defer it.
type Ticket struct {
	c *Coordinator
	g *group
	m Member

	// Guarded by c.mu after seal.
	role     Role
	started  bool             // Start was called (role counter committed)
	finished bool             // Finish was called (refcount released)
	attached bool             // follower received the handoff
	waitCh   chan awaitSignal // buffered 1; promotion/attach delivery
	awaiting bool             // parked in AwaitLeader
}

// awaitSignal wakes a parked follower.
type awaitSignal struct {
	promoted  bool
	leaderErr error
}

// Attach is what AwaitLeader returns to a follower once its group's leader
// is done with the shared pass.
type Attach struct {
	// Promoted is true when the leader failed or was cancelled and this
	// follower must now execute the live pass itself. Source still serves
	// whatever the failed pass already published, so a promoted run resumes
	// partial progress instead of starting cold.
	Promoted bool
	// LeaderErr is the failed leader's error (set only when Promoted).
	LeaderErr error
	// Source serves the group's materialized feature tables (implements
	// core.FeatureSource via Lookup).
	Source *Handoff
}

// Join announces a run computing id to the coordinator and blocks until its
// group seals: when the window of the first matching arrival expires (or the
// group hits MaxGroup), roles are assigned and every member's Join returns.
// The error is non-nil only when ctx is cancelled while the window is open
// (ErrJoinCancelled wrapping the context's error); a sealed ticket is always
// returned, even if ctx raced the seal. A nil Coordinator returns a Solo
// ticket that every method accepts.
func (c *Coordinator) Join(ctx ctxDoner, id Identity, m Member) (*Ticket, error) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	g, ok := c.open[id]
	if !ok {
		g = &group{id: id, sealeds: make(chan struct{})}
		g.timer = c.clk.AfterFunc(c.cfg.Window, func() { c.seal(g) })
		c.open[id] = g
	}
	t := &Ticket{c: c, g: g, m: m, waitCh: make(chan awaitSignal, 1)}
	g.members = append(g.members, t)
	g.refs++
	c.waiting++
	c.notifyLocked()
	full := c.cfg.MaxGroup > 0 && len(g.members) >= c.cfg.MaxGroup
	c.mu.Unlock()
	if full {
		c.seal(g)
	}

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-g.sealeds:
		return t, nil
	case <-done:
		c.mu.Lock()
		if g.sealed {
			// The seal raced the cancellation: the ticket has a role and may
			// even be the leader. Hand it back; the caller's next step (its
			// own admission or run) will observe the dead context and Finish
			// the ticket, which routes into the promotion machinery.
			c.mu.Unlock()
			return t, nil
		}
		// Still open: withdraw. The last member out cancels the window.
		for i, q := range g.members {
			if q == t {
				g.members = append(g.members[:i:i], g.members[i+1:]...)
				break
			}
		}
		g.refs--
		c.waiting--
		c.notifyLocked()
		if len(g.members) == 0 {
			g.timer.Stop()
			delete(c.open, id)
		}
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", ErrJoinCancelled, ctx.Err())
	}
}

// ctxDoner is the subset of context.Context this package needs.
type ctxDoner interface {
	Done() <-chan struct{}
	Err() error
}

// seal closes a group's window: it assigns roles (the member with the most
// requested layers leads; earliest arrival breaks ties), removes the group
// from the open set, and wakes every parked Join.
func (c *Coordinator) seal(g *group) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g.sealed {
		return
	}
	g.sealed = true
	g.timer.Stop()
	delete(c.open, g.id)
	c.waiting -= len(g.members)
	c.notifyLocked()
	if len(g.members) == 0 {
		// Every member withdrew before the window closed.
		close(g.sealeds)
		return
	}
	c.live++
	if c.sizeHist != nil {
		c.sizeHist.Observe(float64(len(g.members)))
	}
	if len(g.members) == 1 {
		g.members[0].role = Solo
		close(g.sealeds)
		return
	}
	c.groups++
	lead := 0
	for i, t := range g.members[1:] {
		if t.m.NumLayers > g.members[lead].m.NumLayers {
			lead = i + 1
		}
	}
	for i, t := range g.members {
		if i == lead {
			t.role = Leader
		} else {
			t.role = Follower
		}
	}
	g.handoff = newHandoff()
	g.state = leading
	close(g.sealeds)
}

// Role reports the member's sealed role. It changes from Follower to Leader
// exactly once, when AwaitLeader promotes the member. Nil-safe (Solo).
func (t *Ticket) Role() Role {
	if t == nil {
		return Solo
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.role
}

// GroupSize reports how many members sealed into the ticket's group
// (1 for solo). Nil-safe.
func (t *Ticket) GroupSize() int {
	if t == nil {
		return 1
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return len(t.g.members)
}

// Source returns the group's handoff for Spec.FeatureSource (nil for solo
// members — they probe only the durable store). Nil-safe.
func (t *Ticket) Source() *Handoff {
	if t == nil {
		return nil
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.g.handoff
}

// Sink returns the group's handoff for Spec.FeatureSink — only the member
// currently executing the live pass publishes (nil for solo members and
// un-promoted followers). Nil-safe.
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

// Start commits the member to executing its run under its current role,
// incrementing that role's counter exactly once. Call it immediately before
// the run; a member that never Starts is counted aborted at Finish. Nil-safe.
func (t *Ticket) Start() {
	if t == nil {
		return
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.started {
		return
	}
	t.started = true
	switch t.role {
	case Leader:
		t.c.leaders++
	case Follower:
		t.c.followers++
	default:
		t.c.solos++
	}
}

// AwaitLeader parks a follower until its group's leader finishes. On leader
// success it returns the handoff to attach; if the leader failed or was
// cancelled, the first parked (or next arriving) follower is promoted —
// Attach.Promoted is set, the ticket's Role becomes Leader, and Source
// resumes whatever the failed pass already published. The error is non-nil
// when ctx is cancelled while parked (ErrWaitCancelled) or when every
// candidate leader already failed (ErrGroupFailed).
func (t *Ticket) AwaitLeader(ctx ctxDoner) (Attach, error) {
	if t == nil {
		return Attach{}, fmt.Errorf("share: AwaitLeader on a solo ticket")
	}
	c := t.c
	c.mu.Lock()
	if t.role != Follower {
		role := t.role
		c.mu.Unlock()
		return Attach{}, fmt.Errorf("share: AwaitLeader called by the %s", role)
	}
	g := t.g
	switch g.state {
	case delivered:
		att := c.attachLocked(t)
		c.mu.Unlock()
		return att, nil
	case pendingPromotion:
		att := c.promoteLocked(t)
		c.mu.Unlock()
		return att, nil
	case dead:
		err := g.leaderErr
		c.mu.Unlock()
		return Attach{}, fmt.Errorf("%w: %w", ErrGroupFailed, err)
	}
	t.awaiting = true
	c.notifyLocked()
	c.mu.Unlock()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case sig := <-t.waitCh:
		c.mu.Lock()
		t.awaiting = false
		var att Attach
		if sig.promoted {
			att = c.promoteLocked(t)
		} else {
			att = c.attachLocked(t)
		}
		c.mu.Unlock()
		return att, nil
	case <-done:
		c.mu.Lock()
		t.awaiting = false
		select {
		case sig := <-t.waitCh:
			// A delivery raced the cancellation. An attach needs nothing —
			// the member just never runs. A promotion must be handed on, or
			// the group's remaining followers hang.
			if sig.promoted {
				g.state = pendingPromotion
				g.leaderErr = sig.leaderErr
				c.dispatchPromotionLocked(g)
			}
		default:
		}
		c.mu.Unlock()
		return Attach{}, fmt.Errorf("%w: %w", ErrWaitCancelled, ctx.Err())
	}
}

// attachLocked records a successful follower attach: the member will run
// against the handoff, having skipped its own inference pass entirely.
func (c *Coordinator) attachLocked(t *Ticket) Attach {
	if !t.attached {
		t.attached = true
		c.dedupFLOPs += t.m.InferenceFLOPs
	}
	return Attach{Source: t.g.handoff}
}

// promoteLocked turns a follower into the group's new leader.
func (c *Coordinator) promoteLocked(t *Ticket) Attach {
	t.role = Leader
	t.g.state = leading
	c.promotions++
	return Attach{Promoted: true, LeaderErr: t.g.leaderErr, Source: t.g.handoff}
}

// Finish reports the member's run outcome and releases its group resources;
// the group's handoff is freed when the last member finishes. For the
// current leader, err != nil (or never having Started) routes into the
// promotion machinery: a parked follower is promoted immediately, otherwise
// the next AwaitLeader caller is. Idempotent and nil-safe, so callers may
// defer it.
func (t *Ticket) Finish(err error) {
	if t == nil {
		return
	}
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.finished {
		return
	}
	t.finished = true
	if !t.started {
		c.aborted++
	}
	g := t.g
	if t.role == Leader && g.state == leading {
		if err == nil && t.started {
			g.state = delivered
			c.deliverLocked(g)
		} else {
			if err == nil {
				err = errors.New("share: leader aborted before running")
			}
			g.state = pendingPromotion
			g.leaderErr = err
			c.dispatchPromotionLocked(g)
		}
	}
	g.refs--
	if g.refs == 0 {
		if g.handoff != nil {
			g.handoff.drop()
		}
		c.live--
	}
}

// deliverLocked wakes every parked follower with the completed handoff.
func (c *Coordinator) deliverLocked(g *group) {
	for _, m := range g.members {
		if m.awaiting {
			m.waitCh <- awaitSignal{}
		}
	}
}

// dispatchPromotionLocked hands the leadership to a parked follower, if any;
// otherwise the group stays pendingPromotion for the next AwaitLeader caller,
// or dies when no candidate remains.
func (c *Coordinator) dispatchPromotionLocked(g *group) {
	for _, m := range g.members {
		if m.awaiting {
			m.waitCh <- awaitSignal{promoted: true, leaderErr: g.leaderErr}
			return
		}
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
// retained as published — the executor hands over freshly projected rows the
// run never mutates afterwards.
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

// Len reports how many entries the handoff holds (0 after drop).
func (h *Handoff) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries)
}

// drop frees the handoff's tables once the last group member finished.
func (h *Handoff) drop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries = nil
}
