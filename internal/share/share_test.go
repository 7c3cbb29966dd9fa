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

// testWindow is the batching window every fake-clock test uses. Its length
// is irrelevant: fake time only moves when a test advances it, so the window
// fires exactly when the test says so — and never fires in tests that want
// an open window.
const testWindow = time.Minute

// newTestCoordinator builds a coordinator on a fake clock with a metrics
// registry, failing the test on config errors.
func newTestCoordinator(t *testing.T, maxGroup int) (*Coordinator, *clock.Fake) {
	t.Helper()
	fc := clock.NewFake()
	c, err := New(Config{Window: testWindow, MaxGroup: maxGroup, Metrics: obs.NewRegistry(), Clock: fc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.changed = sync.NewCond(&c.mu)
	return c, fc
}

// waitState blocks until pred, which reads coordinator state under its
// mutex, holds. The coordinator broadcasts c.changed on every change to the
// state the predicates here read (members inside Join, followers parked in
// AwaitLeader), so this is an event wait: no polling, no scheduler luck, and
// fake time never depends on it.
func waitState(c *Coordinator, pred func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !pred() {
		c.changed.Wait()
	}
}

// advanceWhenWaiting closes the window in the background once n members are
// parked inside Join — the deterministic replacement for "use a window long
// enough that everyone probably joins in time".
func advanceWhenWaiting(c *Coordinator, fc *clock.Fake, n int) {
	go func() {
		waitState(c, func() bool { return c.waiting >= n })
		fc.Advance(testWindow)
	}()
}

// waitParked blocks until every given follower is parked in AwaitLeader.
func waitParked(c *Coordinator, tickets ...*Ticket) {
	for _, tk := range tickets {
		waitState(c, func() bool { return tk.awaiting })
	}
}

func ident(s string) Identity {
	return Identity{Model: "tiny-alexnet", WeightsSum: "w" + s, DataSum: "d" + s}
}

// drained asserts the coordinator holds no open groups, waiting members, or
// live handoffs.
func drained(t *testing.T, c *Coordinator) {
	t.Helper()
	st := c.Stats()
	if st.OpenGroups != 0 || st.WaitingMembers != 0 || st.LiveGroups != 0 {
		t.Fatalf("coordinator not drained: open=%d waiting=%d live=%d",
			st.OpenGroups, st.WaitingMembers, st.LiveGroups)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Window: 0}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(Config{Window: time.Millisecond, MaxGroup: -1}); err == nil {
		t.Error("negative max group accepted")
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

func TestSoloSeal(t *testing.T) {
	c, fc := newTestCoordinator(t, 0)
	advanceWhenWaiting(c, fc, 1)
	tk, err := c.Join(context.Background(), ident("solo"), Member{NumLayers: 2})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if tk.Role() != Solo {
		t.Fatalf("role = %v, want Solo", tk.Role())
	}
	if tk.Source() != nil || tk.Sink() != nil {
		t.Error("solo member has a handoff")
	}
	tk.Start()
	tk.Finish(nil)
	st := c.Stats()
	if st.Solos != 1 || st.Leaders != 0 || st.Followers != 0 || st.Groups != 0 {
		t.Errorf("stats = %+v, want exactly one solo", st)
	}
	drained(t, c)
}

func TestGroupElectsMaxLayersLeader(t *testing.T) {
	c, fc := newTestCoordinator(t, 0)
	layers := []int{1, 3, 2}
	tickets := make([]*Ticket, len(layers))
	var wg sync.WaitGroup
	for i, nl := range layers {
		wg.Add(1)
		go func(i, nl int) {
			defer wg.Done()
			tk, err := c.Join(context.Background(), ident("g"), Member{NumLayers: nl})
			if err != nil {
				t.Errorf("Join %d: %v", i, err)
				return
			}
			tickets[i] = tk
		}(i, nl)
	}
	// The window closes only after all three members joined — group
	// membership is deterministic, not a race against a real timer.
	advanceWhenWaiting(c, fc, len(layers))
	wg.Wait()
	var leaders, followers int
	for i, tk := range tickets {
		if tk == nil {
			t.Fatal("missing ticket")
		}
		switch tk.Role() {
		case Leader:
			leaders++
			if layers[i] != 3 {
				t.Errorf("leader has %d layers, want the max (3)", layers[i])
			}
		case Follower:
			followers++
		default:
			t.Errorf("ticket %d sealed as %v", i, tk.Role())
		}
		if tk.GroupSize() != 3 {
			t.Errorf("group size = %d, want 3", tk.GroupSize())
		}
	}
	if leaders != 1 || followers != 2 {
		t.Fatalf("got %d leaders / %d followers, want 1/2", leaders, followers)
	}
	if st := c.Stats(); st.Groups != 1 {
		t.Errorf("groups = %d, want 1", st.Groups)
	}
	// Settle every ticket so the group frees.
	for _, tk := range tickets {
		if tk.Role() == Leader {
			tk.Start()
			tk.Finish(nil)
		}
	}
	for _, tk := range tickets {
		if tk.Role() == Follower {
			if _, err := tk.AwaitLeader(context.Background()); err != nil {
				t.Errorf("AwaitLeader: %v", err)
			}
			tk.Start()
			tk.Finish(nil)
		}
	}
	drained(t, c)
}

func TestDifferentIdentitiesDoNotGroup(t *testing.T) {
	c, fc := newTestCoordinator(t, 0)
	advanceWhenWaiting(c, fc, 2)
	var wg sync.WaitGroup
	roles := make([]Role, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := c.Join(context.Background(), ident(fmt.Sprintf("distinct-%d", i)), Member{NumLayers: 2})
			if err != nil {
				t.Errorf("Join: %v", err)
				return
			}
			roles[i] = tk.Role()
			tk.Start()
			tk.Finish(nil)
		}(i)
	}
	wg.Wait()
	if roles[0] != Solo || roles[1] != Solo {
		t.Errorf("roles = %v, want two solos", roles)
	}
	drained(t, c)
}

func TestMaxGroupSealsEarly(t *testing.T) {
	// Fake time never advances: only the MaxGroup trigger can seal.
	c, _ := newTestCoordinator(t, 2)
	done := make(chan *Ticket, 2)
	for i := 0; i < 2; i++ {
		go func() {
			tk, err := c.Join(context.Background(), ident("full"), Member{NumLayers: 2})
			if err != nil {
				t.Errorf("Join: %v", err)
			}
			done <- tk
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case tk := <-done:
			tk.Start()
			if tk.Role() == Follower {
				go tk.Finish(nil)
			} else {
				tk.Finish(nil)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("join did not return: MaxGroup seal never fired")
		}
	}
}

// publishTestRows stores n one-tensor rows under k in h.
func publishTestRows(h *Handoff, k featurestore.Key, n int) {
	rows := make([]dataflow.Row, n)
	for i := range rows {
		tt := tensor.New(2)
		tt.Set(float32(i), 0)
		rows[i] = dataflow.Row{ID: int64(i), Features: tensor.NewTensorList(tt)}
	}
	h.Publish(k, rows)
}

func TestHandoffDeliveryAndIsolation(t *testing.T) {
	c, fc := newTestCoordinator(t, 0)
	var wg sync.WaitGroup
	tickets := make([]*Ticket, 2)
	for i, nl := range []int{2, 1} {
		wg.Add(1)
		go func(i, nl int) {
			defer wg.Done()
			tk, err := c.Join(context.Background(), ident("h"), Member{NumLayers: nl, InferenceFLOPs: 1000})
			if err != nil {
				t.Errorf("Join: %v", err)
				return
			}
			tickets[i] = tk
		}(i, nl)
	}
	advanceWhenWaiting(c, fc, 2)
	wg.Wait()
	leader, follower := tickets[0], tickets[1]
	if leader.Role() != Leader {
		leader, follower = follower, leader
	}
	if leader.Role() != Leader || follower.Role() != Follower {
		t.Fatalf("roles = %v/%v", tickets[0].Role(), tickets[1].Role())
	}

	k := featurestore.Key{Model: "m", WeightsSum: "w", DataSum: "d", LayerIndex: 5, Kind: featurestore.Feature}
	leader.Start()
	publishTestRows(leader.Sink(), k, 3)
	leader.Finish(nil)

	att, err := follower.AwaitLeader(context.Background())
	if err != nil {
		t.Fatalf("AwaitLeader: %v", err)
	}
	if att.Promoted {
		t.Fatal("follower promoted under a healthy leader")
	}
	rows, ok := att.Source.Lookup(k)
	if !ok || len(rows) != 3 {
		t.Fatalf("Lookup = (%d rows, %v), want 3 true", len(rows), ok)
	}
	// Deep-copy isolation: mutating the follower's rows must not leak into a
	// second consumer's view.
	rows[0].Features.Get(0).Set(99, 0)
	again, _ := att.Source.Lookup(k)
	if got := again[0].Features.Get(0).At(0); got == 99 {
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
	drained(t, c)
}

// sealGroup joins n members concurrently, closes the window once all are
// parked, and returns their tickets.
func sealGroup(t *testing.T, c *Coordinator, fc *clock.Fake, id Identity, n int) []*Ticket {
	t.Helper()
	tickets := make([]*Ticket, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := c.Join(context.Background(), id, Member{NumLayers: 2, InferenceFLOPs: 10})
			if err != nil {
				t.Errorf("Join: %v", err)
				return
			}
			tickets[i] = tk
		}(i)
	}
	advanceWhenWaiting(c, fc, n)
	wg.Wait()
	for _, tk := range tickets {
		if tk == nil {
			t.Fatal("missing ticket")
		}
	}
	return tickets
}

func split(tickets []*Ticket) (leader *Ticket, followers []*Ticket) {
	for _, tk := range tickets {
		if tk.Role() == Leader {
			leader = tk
		} else {
			followers = append(followers, tk)
		}
	}
	return leader, followers
}

func TestLeaderFailurePromotesParkedFollower(t *testing.T) {
	c, fc := newTestCoordinator(t, 0)
	tickets := sealGroup(t, c, fc, ident("p"), 3)
	leader, followers := split(tickets)

	// Park both followers before the leader fails.
	type await struct {
		att Attach
		err error
		tk  *Ticket
	}
	results := make(chan await, 2)
	for _, f := range followers {
		go func(f *Ticket) {
			att, err := f.AwaitLeader(context.Background())
			results <- await{att, err, f}
		}(f)
	}
	// Both followers must be parked before the leader fails, so the test
	// exercises the promote-a-parked-follower path deterministically.
	waitParked(c, followers...)

	leaderErr := errors.New("injected mid-pass failure")
	leader.Start()
	leader.Finish(leaderErr)

	// Exactly one follower is promoted; it re-runs live and delivers.
	first := <-results
	if first.err != nil {
		t.Fatalf("first AwaitLeader: %v", first.err)
	}
	if !first.att.Promoted {
		t.Fatal("leader failed but the awaiting follower was not promoted")
	}
	if !errors.Is(first.att.LeaderErr, leaderErr) {
		t.Errorf("LeaderErr = %v, want the leader's %v", first.att.LeaderErr, leaderErr)
	}
	if first.tk.Role() != Leader {
		t.Errorf("promoted follower role = %v, want Leader", first.tk.Role())
	}
	first.tk.Start()
	first.tk.Finish(nil)

	second := <-results
	if second.err != nil {
		t.Fatalf("second AwaitLeader: %v", second.err)
	}
	if second.att.Promoted {
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
	drained(t, c)
}

func TestLateFollowerSelfPromotes(t *testing.T) {
	c, fc := newTestCoordinator(t, 0)
	tickets := sealGroup(t, c, fc, ident("late"), 2)
	leader, followers := split(tickets)

	// The leader fails before the follower ever calls AwaitLeader: the group
	// parks in pendingPromotion and the late arrival promotes on the spot.
	leader.Start()
	leader.Finish(errors.New("boom"))

	att, err := followers[0].AwaitLeader(context.Background())
	if err != nil {
		t.Fatalf("AwaitLeader: %v", err)
	}
	if !att.Promoted {
		t.Fatal("late follower not promoted after leader failure")
	}
	followers[0].Start()
	followers[0].Finish(nil)
	if st := c.Stats(); st.Promotions != 1 || st.Leaders != 2 {
		t.Errorf("stats = %+v, want 1 promotion and 2 leaders", st)
	}
	drained(t, c)
}

func TestPromotionChainUntilExhaustion(t *testing.T) {
	// Promotion is sticky: as long as a live follower remains, a failed
	// leader hands the pass on instead of failing the group.
	c, fc := newTestCoordinator(t, 0)
	tickets := sealGroup(t, c, fc, ident("chain"), 3)
	leader, followers := split(tickets)

	leader.Start()
	leader.Finish(errors.New("first failure"))

	// First follower promotes, then fails too.
	att, err := followers[0].AwaitLeader(context.Background())
	if err != nil || !att.Promoted {
		t.Fatalf("AwaitLeader = (%+v, %v), want a promotion", att, err)
	}
	followers[0].Start()
	followers[0].Finish(errors.New("second failure"))

	// The last live member inherits the pass rather than failing.
	att, err = followers[1].AwaitLeader(context.Background())
	if err != nil || !att.Promoted {
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
	drained(t, c)
}

func TestDeadGroupFailsFollower(t *testing.T) {
	// When the last candidate leader fails with every other member already
	// gone, the group dies: a straggler's AwaitLeader gets the typed
	// ErrGroupFailed wrapping the final leader error and counts aborted.
	c, fc := newTestCoordinator(t, 0)
	tickets := sealGroup(t, c, fc, ident("dead"), 3)
	leader, followers := split(tickets)

	// One follower gives up before ever awaiting (client gone pre-await).
	followers[0].Finish(errors.New("client disconnected"))
	// The leader then fails with no parked follower; the dispatcher skips
	// the finished member and keeps the group pending for the live one.
	leaderErr := errors.New("mid-pass failure")
	leader.Start()
	leader.Finish(leaderErr)

	// The live follower promotes, runs, and also fails — now no candidate
	// remains and the group is dead.
	att, err := followers[1].AwaitLeader(context.Background())
	if err != nil || !att.Promoted {
		t.Fatalf("AwaitLeader = (%+v, %v), want a promotion", att, err)
	}
	followers[1].Start()
	lastErr := errors.New("promoted leader failure")
	followers[1].Finish(lastErr)

	// A dead group refuses further waits with the typed error. (No live
	// server path re-awaits a finished group; this guards the state machine
	// against stragglers all the same.)
	c.mu.Lock()
	state := followers[1].g.state
	c.mu.Unlock()
	if state != dead {
		t.Fatalf("group state = %d, want dead", state)
	}
	straggler := &Ticket{c: c, g: followers[1].g, role: Follower, waitCh: make(chan awaitSignal, 1)}
	if _, err := straggler.AwaitLeader(context.Background()); !errors.Is(err, ErrGroupFailed) || !errors.Is(err, lastErr) {
		t.Fatalf("dead-group AwaitLeader = %v, want ErrGroupFailed wrapping %v", err, lastErr)
	}

	st := c.Stats()
	if st.Leaders != 2 || st.Aborted != 1 || st.Promotions != 1 {
		t.Errorf("stats = %+v, want 2 leaders, 1 aborted, 1 promotion", st)
	}
	drained(t, c)
}

func TestAwaitLeaderCancellation(t *testing.T) {
	c, fc := newTestCoordinator(t, 0)
	tickets := sealGroup(t, c, fc, ident("cancel"), 2)
	leader, followers := split(tickets)

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
	followers[0].Finish(ctx.Err())

	// The leader still delivers and finishes normally.
	leader.Start()
	leader.Finish(nil)
	st := c.Stats()
	if st.Aborted != 1 || st.Leaders != 1 {
		t.Errorf("stats = %+v, want 1 aborted + 1 leader", st)
	}
	drained(t, c)
}

func TestJoinCancelledBeforeSeal(t *testing.T) {
	c, _ := newTestCoordinator(t, 0) // fake time never advances: window never fires
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Join(ctx, ident("j"), Member{NumLayers: 2})
		errc <- err
	}()
	waitState(c, func() bool { return c.waiting == 1 })
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrJoinCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("Join error = %v, want ErrJoinCancelled wrapping context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Join never returned")
	}
	drained(t, c)
}

func TestCancelledAwaitRelaysPromotion(t *testing.T) {
	// A promotion signal racing a follower's cancellation must be handed on
	// to the next live follower, or the group hangs.
	c, fc := newTestCoordinator(t, 0)
	tickets := sealGroup(t, c, fc, ident("relay"), 3)
	leader, followers := split(tickets)

	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := followers[0].AwaitLeader(ctx)
		parked <- err
	}()
	waitParked(c, followers[0])

	// Fail the leader (promotes the parked follower), then immediately
	// cancel that follower; whether the signal or the cancel wins the race,
	// the second follower must end up promoted or delivered — never hung.
	leader.Start()
	leader.Finish(errors.New("boom"))
	cancel()
	err := <-parked
	if err != nil {
		followers[0].Finish(err)
	} else {
		// The promotion signal won the race; the follower is the new leader
		// and abandons leadership by finishing with the cancellation.
		followers[0].Finish(ctx.Err())
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		att, err := followers[1].AwaitLeader(context.Background())
		if err != nil {
			t.Errorf("surviving follower: %v", err)
			followers[1].Finish(err)
			return
		}
		if !att.Promoted {
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
	drained(t, c)
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
		"vista_share_group_size",
		"vista_share_dedup_flops_total",
		"vista_share_promotions_total",
		"vista_share_aborted_total",
		"vista_share_open_groups 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestExactlyOneOutcomePerMember(t *testing.T) {
	c, fc := newTestCoordinator(t, 0)
	const groups, perGroup = 4, 3
	// All four group windows are due at the same fake instant; one Advance
	// seals all of them once every member is parked.
	advanceWhenWaiting(c, fc, groups*perGroup)
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
				switch tk.Role() {
				case Follower:
					if _, err := tk.AwaitLeader(context.Background()); err != nil {
						tk.Finish(err)
						return
					}
				}
				tk.Start()
				tk.Finish(nil)
			}(g, m)
		}
	}
	wg.Wait()
	st := c.Stats()
	if got := st.Leaders + st.Followers + st.Solos + st.Aborted; got != groups*perGroup {
		t.Fatalf("outcomes sum to %d, want %d (stats %+v)", got, groups*perGroup, st)
	}
	if st.Aborted != 0 {
		t.Errorf("aborted = %d on the happy path, want 0", st.Aborted)
	}
	drained(t, c)
}
