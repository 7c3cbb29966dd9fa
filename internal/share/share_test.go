package share

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dataflow"
	"repro/internal/faultinject"
	"repro/internal/featurestore"
	"repro/internal/obs"
	"repro/internal/tensor"
)

func TestMain(m *testing.M) {
	code := m.Run()
	// CI contract: a test that arms a failpoint must disarm it; anything
	// left armed would silently poison unrelated tests.
	if sites := faultinject.ArmedSites(); len(sites) > 0 {
		fmt.Fprintf(os.Stderr, "failpoint sites left armed at exit: %v\n", sites)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// testWindow is the joinability window every fake-clock test uses. Fake time
// only moves when a test advances it, so a group stays joinable until the
// test says otherwise — and no test ever needs to advance it for a Join to
// return.
const testWindow = time.Minute

// newTestCoordinator builds a coordinator on a fake clock with a metrics
// registry and the test-only change broadcast, failing the test on config
// errors.
func newTestCoordinator(t *testing.T) (*Coordinator, *clock.Fake) {
	t.Helper()
	fc := clock.NewFake()
	c, err := New(Config{Window: testWindow, Metrics: obs.NewRegistry(), Clock: fc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.changed = sync.NewCond(&c.mu)
	return c, fc
}

// waitParked blocks until every given follower is parked in AwaitLeader. The
// coordinator broadcasts c.changed whenever a follower parks or is woken, so
// this is an event wait: no polling, no scheduler luck.
func waitParked(c *Coordinator, tickets ...*Ticket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tk := range tickets {
		for !tk.awaiting {
			c.changed.Wait()
		}
	}
}

func ident(s string) Identity {
	return Identity{Model: "tiny-alexnet", WeightsSum: "w" + s, DataSum: "d" + s}
}

// join is Join that fails the test on error.
func join(t *testing.T, c *Coordinator, id Identity, layers int) *Ticket {
	t.Helper()
	tk, err := c.Join(context.Background(), id, Member{NumLayers: layers, InferenceFLOPs: 10})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	return tk
}

// formGroup joins n two-layer members on id; the first leads.
func formGroup(t *testing.T, c *Coordinator, id Identity, n int) (leader *Ticket, followers []*Ticket) {
	t.Helper()
	leader = join(t, c, id, 2)
	for i := 1; i < n; i++ {
		followers = append(followers, join(t, c, id, 2))
	}
	return leader, followers
}

// drained asserts the coordinator holds no open groups, waiting members, or
// live handoffs, and that every finished member took exactly one outcome.
func drained(t *testing.T, c *Coordinator, members int64) {
	t.Helper()
	st := c.Stats()
	if st.OpenGroups != 0 || st.WaitingMembers != 0 || st.LiveGroups != 0 {
		t.Fatalf("coordinator not drained: open=%d waiting=%d live=%d",
			st.OpenGroups, st.WaitingMembers, st.LiveGroups)
	}
	if got := st.Leaders + st.Followers + st.Solos + st.Aborted; got != members {
		t.Fatalf("outcomes sum to %d, want %d (stats %+v)", got, members, st)
	}
}

// runTicket settles one ticket the way lifecycle.Do does: a follower awaits
// its leader, then the member starts and finishes with err.
func runTicket(t *testing.T, tk *Ticket, err error) {
	t.Helper()
	if tk.Role() == Follower {
		if _, aerr := tk.AwaitLeader(context.Background()); aerr != nil {
			t.Errorf("AwaitLeader: %v", aerr)
			tk.Finish(aerr)
			return
		}
	}
	tk.Start()
	tk.Finish(err)
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Window: 0}); err == nil {
		t.Error("zero window accepted")
	}
}

func TestNilCoordinatorSharesNothing(t *testing.T) {
	var c *Coordinator
	tk, err := c.Join(context.Background(), ident("x"), Member{NumLayers: 2})
	if err != nil || tk != nil {
		t.Fatalf("nil Join = (%v, %v), want (nil, nil)", tk, err)
	}
	// Every ticket method must be nil-safe.
	if tk.Role() != Solo {
		t.Errorf("nil ticket role = %v, want Solo", tk.Role())
	}
	if tk.GroupSize() != 1 || tk.Source() != nil || tk.Sink() != nil {
		t.Error("nil ticket group accessors not inert")
	}
	tk.Start()
	tk.Finish(nil)
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil coordinator stats = %+v, want zero", st)
	}
}

// TestLoneLeaderIsSolo is the contract's headline: a run nobody joins leads
// at once — the fake clock never moves — publishes into a handoff that is
// dropped at its Finish, and is counted and reported as a solo.
func TestLoneLeaderIsSolo(t *testing.T) {
	c, _ := newTestCoordinator(t)
	tk := join(t, c, ident("solo"), 2)
	if tk.Role() != Leader || tk.GroupSize() != 1 {
		t.Fatalf("first arrival = %v of %d, want the leader of a group of 1", tk.Role(), tk.GroupSize())
	}
	sink := tk.Sink()
	if sink == nil || tk.Source() != sink {
		t.Fatal("a lone leader has no handoff to publish into")
	}
	k := featurestore.Key{Model: "m", LayerIndex: 1, Kind: featurestore.Feature}
	publishTestRows(sink, k, 2)
	if st := c.Stats(); st.OpenGroups != 1 || st.LiveGroups != 1 {
		t.Errorf("stats while running = %+v, want 1 open and 1 live group", st)
	}
	tk.Start()
	tk.Finish(nil)
	if tk.Role() != Solo || tk.GroupSize() != 1 {
		t.Errorf("committed role = %v of %d, want solo of 1", tk.Role(), tk.GroupSize())
	}
	if _, ok := sink.Lookup(k); ok {
		t.Error("handoff not dropped at the lone leader's Finish")
	}
	st := c.Stats()
	if st.Solos != 1 || st.Leaders != 0 || st.Followers != 0 || st.Groups != 0 {
		t.Errorf("stats = %+v, want exactly one solo", st)
	}
	drained(t, c, 1)
}

// TestFirstArrivalLeads restates max-layers election for first-arrival
// leadership: the first Join leads whatever the others request, as long as
// they request no more.
func TestFirstArrivalLeads(t *testing.T) {
	c, _ := newTestCoordinator(t)
	layers := []int{3, 1, 2, 3}
	tickets := make([]*Ticket, len(layers))
	for i, nl := range layers {
		tickets[i] = join(t, c, ident("g"), nl)
	}
	for i, tk := range tickets {
		want := Follower
		if i == 0 {
			want = Leader
		}
		if tk.Role() != want {
			t.Errorf("ticket %d (%d layers) = %v, want %v", i, layers[i], tk.Role(), want)
		}
		if tk.GroupSize() != len(layers) {
			t.Errorf("group size = %d, want %d", tk.GroupSize(), len(layers))
		}
	}
	if st := c.Stats(); st.Groups != 1 || st.OpenGroups != 1 {
		t.Errorf("stats = %+v, want 1 group, still open", st)
	}
	for _, tk := range tickets {
		runTicket(t, tk, nil)
	}
	if st := c.Stats(); st.Leaders != 1 || st.Followers != 3 {
		t.Errorf("stats = %+v, want 1 leader + 3 followers", st)
	}
	drained(t, c, int64(len(layers)))
}

// TestWindowBoundsJoinability: a group accepts joiners for exactly Window
// after its first arrival, checked against the clock at Join.
func TestWindowBoundsJoinability(t *testing.T) {
	c, fc := newTestCoordinator(t)
	first := join(t, c, ident("w"), 2)
	fc.Advance(testWindow - time.Nanosecond)
	early := join(t, c, ident("w"), 2)
	if early.Role() != Follower || early.g != first.g {
		t.Fatalf("joiner at Window-1ns = %v, want a follower of the first group", early.Role())
	}
	fc.Advance(time.Nanosecond)
	late := join(t, c, ident("w"), 2)
	if late.Role() != Leader || late.g == first.g {
		t.Fatalf("joiner at Window = %v, want the leader of a new group", late.Role())
	}
	if st := c.Stats(); st.OpenGroups != 1 || st.LiveGroups != 2 {
		t.Errorf("stats = %+v, want the new group open and both live", st)
	}
	for _, tk := range []*Ticket{first, early, late} {
		runTicket(t, tk, nil)
	}
	if first.Role() != Leader || late.Role() != Solo {
		t.Errorf("committed roles = %v/%v, want leader/solo", first.Role(), late.Role())
	}
	drained(t, c, 3)
}

// TestWiderJoinerOpensNewGroup: a joiner requesting more layers than the
// leader's pass covers leads a new group under the same identity, and the old
// group admits nobody after it.
func TestWiderJoinerOpensNewGroup(t *testing.T) {
	c, _ := newTestCoordinator(t)
	narrow := join(t, c, ident("wide"), 2)
	wide := join(t, c, ident("wide"), 3)
	if wide.Role() != Leader || wide.g == narrow.g {
		t.Fatalf("3-layer joiner of a 2-layer leader = %v, want the leader of a new group", wide.Role())
	}
	small := join(t, c, ident("wide"), 1)
	if small.Role() != Follower || small.g != wide.g {
		t.Fatalf("1-layer joiner = %v, want a follower of the newest group", small.Role())
	}
	for _, tk := range []*Ticket{narrow, wide, small} {
		runTicket(t, tk, nil)
	}
	if narrow.GroupSize() != 1 || narrow.Role() != Solo {
		t.Errorf("old group = %v of %d, want a solo that nobody joined", narrow.Role(), narrow.GroupSize())
	}
	if st := c.Stats(); st.Solos != 1 || st.Leaders != 1 || st.Followers != 1 {
		t.Errorf("stats = %+v, want 1 solo + 1 leader + 1 follower", st)
	}
	drained(t, c, 3)
}

// TestJoinAfterDeliveryAttaches: a delivered group stays joinable while any
// member is still running; the joiner attaches at once. Once the last member
// finished, the next arrival leads afresh.
func TestJoinAfterDeliveryAttaches(t *testing.T) {
	c, _ := newTestCoordinator(t)
	leader, followers := formGroup(t, c, ident("d"), 2)
	k := featurestore.Key{Model: "m", LayerIndex: 3, Kind: featurestore.Feature}
	leader.Start()
	publishTestRows(leader.Sink(), k, 1)
	leader.Finish(nil)

	running := followers[0]
	if _, err := running.AwaitLeader(context.Background()); err != nil {
		t.Fatal(err)
	}
	running.Start() // still running when the next request arrives

	late := join(t, c, ident("d"), 2)
	if late.Role() != Follower {
		t.Fatalf("joiner after delivery = %v, want follower", late.Role())
	}
	att, err := late.AwaitLeader(context.Background())
	if err != nil || late.Role() == Leader {
		t.Fatalf("AwaitLeader after delivery = (%+v, %v), want a plain attach", att, err)
	}
	if _, ok := att.Source.Lookup(k); !ok {
		t.Error("late follower's handoff lost the leader's table")
	}
	late.Start()
	late.Finish(nil)
	running.Finish(nil)
	if st := c.Stats(); st.Followers != 2 || st.DedupFLOPs != 20 {
		t.Errorf("stats = %+v, want 2 followers crediting 20 dedup FLOPs", st)
	}

	next := join(t, c, ident("d"), 2)
	if next.Role() != Leader || next.g == leader.g {
		t.Fatalf("arrival after the group drained = %v, want the leader of a new group", next.Role())
	}
	runTicket(t, next, nil)
	drained(t, c, 4)
}

func TestDifferentIdentitiesDoNotGroup(t *testing.T) {
	c, _ := newTestCoordinator(t)
	a := join(t, c, ident("distinct-0"), 2)
	b := join(t, c, ident("distinct-1"), 2)
	runTicket(t, a, nil)
	runTicket(t, b, nil)
	if a.Role() != Solo || b.Role() != Solo {
		t.Errorf("roles = %v/%v, want two solos", a.Role(), b.Role())
	}
	drained(t, c, 2)
}

// publishTestRows stores n one-tensor rows under k in h.
func publishTestRows(h *Handoff, k featurestore.Key, n int) {
	rows := make([]dataflow.Row, n)
	for i := range rows {
		tt := tensor.New(2)
		tt.Data()[0] = float32(i)
		rows[i] = dataflow.Row{ID: int64(i), Features: tensor.NewTensorList(tt)}
	}
	h.Publish(k, rows)
}

func TestHandoffDeliveryAndIsolation(t *testing.T) {
	c, _ := newTestCoordinator(t)
	leader := join(t, c, ident("h"), 2)
	follower, err := c.Join(context.Background(), ident("h"), Member{NumLayers: 1, InferenceFLOPs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if leader.Role() != Leader || follower.Role() != Follower {
		t.Fatalf("roles = %v/%v", leader.Role(), follower.Role())
	}

	k := featurestore.Key{Model: "m", WeightsSum: "w", DataSum: "d", LayerIndex: 5, Kind: featurestore.Feature}
	leader.Start()
	publishTestRows(leader.Sink(), k, 3)
	leader.Finish(nil)

	att, err := follower.AwaitLeader(context.Background())
	if err != nil {
		t.Fatalf("AwaitLeader: %v", err)
	}
	if follower.Role() == Leader {
		t.Fatal("follower promoted under a healthy leader")
	}
	rows, ok := att.Source.Lookup(k)
	if !ok || len(rows) != 3 {
		t.Fatalf("Lookup = (%d rows, %v), want 3 true", len(rows), ok)
	}
	// Deep-copy isolation: mutating the follower's rows must not leak into a
	// second consumer's view.
	rows[0].Features.Get(0).Data()[0] = 99
	again, _ := att.Source.Lookup(k)
	if got := again[0].Features.Get(0).Data()[0]; got == 99 {
		t.Error("Lookup aliases the published tensors; want deep copies")
	}
	follower.Start()
	follower.Finish(nil)

	st := c.Stats()
	if st.Leaders != 1 || st.Followers != 1 {
		t.Errorf("stats = %+v, want 1 leader + 1 follower", st)
	}
	if st.DedupFLOPs != 1000 {
		t.Errorf("dedup FLOPs = %d, want the follower's 1000", st.DedupFLOPs)
	}
	// The last Finish freed the handoff.
	if _, ok := att.Source.Lookup(k); ok {
		t.Error("handoff still serves entries after the group finished")
	}
	drained(t, c, 2)
}

// awaitResult is one follower's AwaitLeader outcome.
type awaitResult struct {
	att Attach
	err error
	tk  *Ticket
}

// awaitAsync parks each follower in its own goroutine and returns once all
// of them are parked; results arrive on the channel.
func awaitAsync(c *Coordinator, followers ...*Ticket) <-chan awaitResult {
	results := make(chan awaitResult, len(followers))
	for _, f := range followers {
		go func(f *Ticket) {
			att, err := f.AwaitLeader(context.Background())
			results <- awaitResult{att, err, f}
		}(f)
	}
	waitParked(c, followers...)
	return results
}

func TestLeaderFailurePromotesParkedFollower(t *testing.T) {
	c, _ := newTestCoordinator(t)
	leader, followers := formGroup(t, c, ident("p"), 3)
	// Both followers are parked before the leader fails, so the test
	// exercises the promote-a-parked-follower path deterministically.
	results := awaitAsync(c, followers...)
	if st := c.Stats(); st.WaitingMembers != 2 {
		t.Errorf("waiting members = %d, want the 2 parked followers", st.WaitingMembers)
	}

	leaderErr := errors.New("injected mid-pass failure")
	leader.Start()
	leader.Finish(leaderErr)

	// Exactly one follower is promoted; it re-runs live and delivers.
	first := <-results
	if first.err != nil {
		t.Fatalf("first AwaitLeader: %v", first.err)
	}
	if first.tk.Role() != Leader {
		t.Fatalf("leader failed but the awaiting follower was not promoted: role %v", first.tk.Role())
	}
	first.tk.Start()
	first.tk.Finish(nil)

	second := <-results
	if second.err != nil {
		t.Fatalf("second AwaitLeader: %v", second.err)
	}
	if second.tk.Role() == Leader {
		t.Error("second follower promoted although the new leader delivered")
	}
	second.tk.Start()
	second.tk.Finish(nil)

	st := c.Stats()
	if st.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", st.Promotions)
	}
	// Outcome invariant: the failed leader and the promoted one both counted
	// leader; the remaining member counted follower.
	if st.Leaders != 2 || st.Followers != 1 || st.Solos != 0 {
		t.Errorf("stats = %+v, want 2 leaders + 1 follower", st)
	}
	drained(t, c, 3)
}

// TestPromotionCoversDeepestFollower: a failed leader hands the pass to the
// parked follower requesting the most layers, whatever the parking order, so
// the pass it delivers covers every other parked follower.
func TestPromotionCoversDeepestFollower(t *testing.T) {
	c, _ := newTestCoordinator(t)
	leader := join(t, c, ident("deep"), 5)
	shallow := join(t, c, ident("deep"), 2)
	deep := join(t, c, ident("deep"), 4)
	results := awaitAsync(c, shallow) // parks first
	deepResult := awaitAsync(c, deep)

	leader.Start()
	leader.Finish(errors.New("boom"))
	r := <-deepResult
	if r.err != nil || r.tk.Role() != Leader {
		t.Fatalf("4-layer follower = (%+v, %v), want promoted", r.att, r.err)
	}
	if shallow.Role() != Follower {
		t.Fatal("the 2-layer follower parked first was promoted over the 4-layer one")
	}
	deep.Start()
	deep.Finish(nil)
	if r := <-results; r.err != nil || r.tk.Role() == Leader {
		t.Fatalf("2-layer follower = (%+v, %v), want an attach to the 4-layer pass", r.att, r.err)
	}
	shallow.Start()
	shallow.Finish(nil)
	if st := c.Stats(); st.Leaders != 2 || st.Followers != 1 || st.DedupFLOPs != 10 {
		t.Errorf("stats = %+v, want 2 leaders, 1 follower, 10 dedup FLOPs", st)
	}
	drained(t, c, 3)
}

// TestUncoveredFollowerPromotedAfterDelivery: when a shallower promoted
// leader delivers, a follower requesting more layers than that pass covered
// is promoted instead of attached — and credits no deduplicated FLOPs.
func TestUncoveredFollowerPromotedAfterDelivery(t *testing.T) {
	c, _ := newTestCoordinator(t)
	leader := join(t, c, ident("cover"), 5)
	shallow := join(t, c, ident("cover"), 2)
	deep := join(t, c, ident("cover"), 4)
	results := awaitAsync(c, shallow) // the only parked follower

	leader.Start()
	leader.Finish(errors.New("boom"))
	if r := <-results; r.tk.Role() != Leader {
		t.Fatalf("parked follower = (%+v, %v), want promoted", r.att, r.err)
	}
	shallow.Start()
	shallow.Finish(nil) // delivers a 2-layer pass

	att, err := deep.AwaitLeader(context.Background())
	if err != nil || deep.Role() != Leader {
		t.Fatalf("4-layer follower after a 2-layer delivery = (%+v, %v), want promoted", att, err)
	}
	deep.Start()
	deep.Finish(nil)
	if st := c.Stats(); st.Leaders != 3 || st.Followers != 0 || st.Promotions != 2 || st.DedupFLOPs != 0 {
		t.Errorf("stats = %+v, want 3 leaders, 2 promotions, no dedup credit", st)
	}
	drained(t, c, 3)
}

func TestLateFollowerSelfPromotes(t *testing.T) {
	c, _ := newTestCoordinator(t)
	leader, followers := formGroup(t, c, ident("late"), 2)

	// The leader fails before the follower ever calls AwaitLeader: the group
	// parks in pendingPromotion and the late arrival promotes on the spot.
	leader.Start()
	leader.Finish(errors.New("boom"))

	_, err := followers[0].AwaitLeader(context.Background())
	if err != nil {
		t.Fatalf("AwaitLeader: %v", err)
	}
	if followers[0].Role() != Leader {
		t.Fatal("late follower not promoted after leader failure")
	}
	followers[0].Start()
	followers[0].Finish(nil)
	if st := c.Stats(); st.Promotions != 1 || st.Leaders != 2 {
		t.Errorf("stats = %+v, want 1 promotion and 2 leaders", st)
	}
	drained(t, c, 2)
}

func TestPromotionChainUntilExhaustion(t *testing.T) {
	// Promotion is sticky: as long as a live follower remains, a failed
	// leader hands the pass on instead of failing the group.
	c, _ := newTestCoordinator(t)
	leader, followers := formGroup(t, c, ident("chain"), 3)

	leader.Start()
	leader.Finish(errors.New("first failure"))

	// First follower promotes, then fails too.
	att, err := followers[0].AwaitLeader(context.Background())
	if err != nil || followers[0].Role() != Leader {
		t.Fatalf("AwaitLeader = (%+v, %v), want a promotion", att, err)
	}
	followers[0].Start()
	followers[0].Finish(errors.New("second failure"))

	// The last live member inherits the pass rather than failing.
	att, err = followers[1].AwaitLeader(context.Background())
	if err != nil || followers[1].Role() != Leader {
		t.Fatalf("last AwaitLeader = (%+v, %v), want a promotion", att, err)
	}
	followers[1].Start()
	followers[1].Finish(nil)

	st := c.Stats()
	if st.Promotions != 2 {
		t.Errorf("promotions = %d, want 2", st.Promotions)
	}
	if st.Leaders != 3 || st.Followers != 0 || st.Aborted != 0 {
		t.Errorf("stats = %+v, want 3 leaders (2 failed + 1 promoted success)", st)
	}
	drained(t, c, 3)
}

func TestDeadGroupFailsFollower(t *testing.T) {
	// When the last candidate leader fails with every other member already
	// gone, the group dies: a straggler's AwaitLeader gets the typed
	// ErrGroupFailed wrapping the final leader error.
	c, _ := newTestCoordinator(t)
	leader, followers := formGroup(t, c, ident("dead"), 3)

	// One follower gives up before ever awaiting (client gone pre-await).
	followers[0].Finish(errors.New("client disconnected"))
	// The leader then fails with no parked follower; the dispatcher skips
	// the finished member and keeps the group pending for the live one.
	leader.Start()
	leader.Finish(errors.New("mid-pass failure"))

	// The live follower promotes, runs, and also fails — now no candidate
	// remains and the group is dead.
	att, err := followers[1].AwaitLeader(context.Background())
	if err != nil || followers[1].Role() != Leader {
		t.Fatalf("AwaitLeader = (%+v, %v), want a promotion", att, err)
	}
	followers[1].Start()
	lastErr := errors.New("promoted leader failure")
	followers[1].Finish(lastErr)

	c.mu.Lock()
	state := leader.g.state
	c.mu.Unlock()
	if state != dead {
		t.Fatalf("group state = %d, want dead", state)
	}
	// A dead group refuses further waits with the typed error. (No live
	// server path re-awaits a finished group; this guards the state machine
	// against stragglers all the same.)
	straggler := &Ticket{c: c, g: leader.g, role: Follower, woken: make(chan struct{}, 1)}
	if _, err := straggler.AwaitLeader(context.Background()); !errors.Is(err, ErrGroupFailed) || !errors.Is(err, lastErr) {
		t.Fatalf("dead-group AwaitLeader = %v, want ErrGroupFailed wrapping %v", err, lastErr)
	}

	st := c.Stats()
	if st.Leaders != 2 || st.Aborted != 1 || st.Promotions != 1 {
		t.Errorf("stats = %+v, want 2 leaders, 1 aborted, 1 promotion", st)
	}
	drained(t, c, 3)
}

func TestAwaitLeaderCancellation(t *testing.T) {
	c, _ := newTestCoordinator(t)
	leader, followers := formGroup(t, c, ident("cancel"), 2)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := followers[0].AwaitLeader(ctx)
		errc <- err
	}()
	waitParked(c, followers[0])
	cancel()
	if err := <-errc; !errors.Is(err, ErrWaitCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("AwaitLeader error = %v, want ErrWaitCancelled wrapping context.Canceled", err)
	}
	if st := c.Stats(); st.WaitingMembers != 0 {
		t.Errorf("waiting members = %d after the cancelled wait, want 0", st.WaitingMembers)
	}
	followers[0].Finish(ctx.Err())

	// The leader still delivers and finishes normally.
	leader.Start()
	leader.Finish(nil)
	st := c.Stats()
	if st.Aborted != 1 || st.Leaders != 1 {
		t.Errorf("stats = %+v, want 1 aborted + 1 leader", st)
	}
	drained(t, c, 2)
}

// TestJoinWithDoneContext: Join returns ErrJoinCancelled only for a context
// that is already done, and then leaves nothing behind.
func TestJoinWithDoneContext(t *testing.T) {
	c, _ := newTestCoordinator(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tk, err := c.Join(ctx, ident("j"), Member{NumLayers: 2}); tk != nil ||
		!errors.Is(err, ErrJoinCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Join = (%v, %v), want ErrJoinCancelled wrapping context.Canceled", tk, err)
	}
	drained(t, c, 0)
}

func TestCancelledAwaitRelaysPromotion(t *testing.T) {
	// A promotion racing a follower's cancellation must be handed on to the
	// next live follower, or the group hangs.
	c, _ := newTestCoordinator(t)
	leader, followers := formGroup(t, c, ident("relay"), 3)

	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := followers[0].AwaitLeader(ctx)
		parked <- err
	}()
	waitParked(c, followers[0])

	// Fail the leader (promotes the parked follower), then immediately
	// cancel that follower; whether the promotion or the cancel wins the
	// race, the second follower must end up promoted — never hung.
	leader.Start()
	leader.Finish(errors.New("boom"))
	cancel()
	err := <-parked
	if err == nil {
		// The promotion won the race; the follower is the new leader and
		// abandons leadership by finishing with the cancellation.
		err = ctx.Err()
	}
	followers[0].Finish(err)

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := followers[1].AwaitLeader(context.Background())
		if err != nil {
			t.Errorf("surviving follower: %v", err)
			followers[1].Finish(err)
			return
		}
		if followers[1].Role() != Leader {
			t.Error("surviving follower neither promoted nor failed")
		}
		followers[1].Start()
		followers[1].Finish(nil)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("surviving follower hung: promotion was lost in the cancellation race")
	}
	drained(t, c, 3)
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{Window: 5 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	tk, _ := c.Join(context.Background(), ident("m"), Member{NumLayers: 2})
	tk.Start()
	tk.Finish(nil)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`vista_share_runs_total{role="leader"} 0`,
		`vista_share_runs_total{role="follower"} 0`,
		`vista_share_runs_total{role="solo"} 1`,
		`vista_share_group_size_bucket{le="1"} 1`,
		"vista_share_dedup_flops_total",
		"vista_share_promotions_total",
		"vista_share_aborted_total",
		"vista_share_open_groups 0",
		"vista_share_waiting_members 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestExactlyOneOutcomePerMember(t *testing.T) {
	c, _ := newTestCoordinator(t)
	const groups, perGroup = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		for m := 0; m < perGroup; m++ {
			wg.Add(1)
			go func(g, m int) {
				defer wg.Done()
				tk, err := c.Join(context.Background(), ident(fmt.Sprintf("inv-%d", g)), Member{NumLayers: 1 + m})
				if err != nil {
					t.Errorf("Join: %v", err)
					return
				}
				runTicket(t, tk, nil)
			}(g, m)
		}
	}
	wg.Wait()
	if st := c.Stats(); st.Aborted != 0 {
		t.Errorf("aborted = %d on the happy path, want 0", st.Aborted)
	}
	drained(t, c, groups*perGroup)
}
