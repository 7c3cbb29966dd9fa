package share_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/share"
)

// tinySpec builds a small end-to-end spec over generated data and the
// executable tiny-alexnet — the same shape vista-server gives a /run body.
func tinySpec(t *testing.T, rows, layers int, seed int64) core.Spec {
	t.Helper()
	structRows, imageRows, err := data.Generate(data.Foods().WithRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{
		Nodes:        2,
		CoresPerNode: 4,
		MemPerNode:   memory.GB(32),
		SystemKind:   memory.SparkLike,
		ModelName:    "tiny-alexnet",
		NumLayers:    layers,
		Downstream:   core.DefaultDownstream(),
		StructRows:   structRows,
		ImageRows:    imageRows,
		Seed:         seed,
		PlanKind:     plan.Staged,
		Placement:    plan.AfterJoin,
		SpillDir:     t.TempDir(),
	}
}

// memberResult is one group member's outcome in a shared execution.
type memberResult struct {
	role     share.Role // role at Start time (after any promotion)
	promoted bool
	layers   int
	res      *core.Result
	err      error
}

// join announces spec to the coordinator the way lifecycle.Do does.
func join(t *testing.T, c *share.Coordinator, spec core.Spec) *share.Ticket {
	t.Helper()
	fp, ok := core.ShareFingerprint(spec)
	if !ok {
		t.Fatal("spec unexpectedly not shareable")
	}
	tk, err := c.Join(context.Background(),
		share.Identity{Model: fp.Model, WeightsSum: fp.WeightsSum, DataSum: fp.DataSum},
		share.Member{NumLayers: fp.NumLayers, InferenceFLOPs: fp.InferenceFLOPs})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	return tk
}

// runJoined drives one joined spec exactly as lifecycle.Do does:
// follower-awaits-leader, attach source/sink by role, start, run, finish.
func runJoined(tk *share.Ticket, spec core.Spec) memberResult {
	out := memberResult{role: tk.Role(), layers: spec.NumLayers}
	if tk.Role() == share.Follower {
		att, aerr := tk.AwaitLeader(context.Background())
		if aerr != nil {
			tk.Finish(aerr)
			out.err = aerr
			return out
		}
		spec.FeatureSource = att.Source
		out.role = tk.Role()
		out.promoted = out.role == share.Leader
	}
	if tk.Role() == share.Leader {
		spec.FeatureSource = tk.Source()
		spec.FeatureSink = tk.Sink()
	}
	tk.Start()
	res, rerr := core.Run(spec)
	tk.Finish(rerr)
	out.res, out.err = res, rerr
	return out
}

// runAll runs every joined member concurrently and returns their results in
// order.
func runAll(tickets []*share.Ticket, specs []core.Spec) []memberResult {
	results := make([]memberResult, len(tickets))
	var wg sync.WaitGroup
	for i := range tickets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runJoined(tickets[i], specs[i])
		}(i)
	}
	wg.Wait()
	return results
}

// newFakeCoordinator builds a coordinator whose window never closes: the
// fake clock is never advanced, and no Join waits for it.
func newFakeCoordinator(t *testing.T) *share.Coordinator {
	t.Helper()
	c, err := share.NewObserved(share.Config{Window: time.Minute, Clock: clock.NewFake()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func drained(t *testing.T, c *share.Coordinator) {
	t.Helper()
	if st := c.Stats(); st.OpenGroups != 0 || st.WaitingMembers != 0 || st.LiveGroups != 0 {
		t.Errorf("coordinator not drained: %+v", st)
	}
}

func TestSharedRunEndToEnd(t *testing.T) {
	c := newFakeCoordinator(t)
	const rows = 48

	// The leader explores two layers, the follower one: the follower's
	// feature set is a subset of the leader's, so one pass covers both.
	specs := []core.Spec{tinySpec(t, rows, 2, 7), tinySpec(t, rows, 1, 7)}
	tickets := []*share.Ticket{join(t, c, specs[0]), join(t, c, specs[1])}
	results := runAll(tickets, specs)
	leader, follower := results[0], results[1]
	if leader.role != share.Leader || follower.role != share.Follower {
		t.Fatalf("roles = %v/%v, want the first arrival leading", leader.role, follower.role)
	}
	if leader.err != nil || follower.err != nil {
		t.Fatalf("run errors: leader %v, follower %v", leader.err, follower.err)
	}
	if got := len(leader.res.Layers); got != 2 {
		t.Errorf("leader trained %d layers, want 2", got)
	}
	if got := len(follower.res.Layers); got != 1 {
		t.Errorf("follower trained %d layers, want 1", got)
	}

	// The follower attached every inference stage from the handoff: no live
	// steps, no infer spans, all stages labeled shared.
	if follower.res.Cache.StagesShared != 1 || follower.res.Cache.StagesExecuted != 0 {
		t.Errorf("follower cache report = %+v, want 1 shared / 0 executed", follower.res.Cache)
	}
	var sawShared bool
	for _, sp := range follower.res.Trace.Children() {
		if strings.HasPrefix(sp.Name(), "infer:") {
			t.Errorf("follower ran a live inference stage %q", sp.Name())
		}
		if strings.HasPrefix(sp.Name(), "shared:") {
			sawShared = true
		}
	}
	if !sawShared {
		t.Error("follower trace has no shared:<layer> stage")
	}
	if leader.res.Cache.StagesExecuted != 2 {
		t.Errorf("leader executed %d stages, want 2", leader.res.Cache.StagesExecuted)
	}

	// Determinism: the follower's model trained on attached features must
	// match a solo run that computes the same features itself.
	solo, err := core.Run(tinySpec(t, rows, 1, 7))
	if err != nil {
		t.Fatalf("solo baseline: %v", err)
	}
	fl, sl := follower.res.Layers[0], solo.Layers[0]
	if fl.LayerName != sl.LayerName || fl.Train.F1 != sl.Train.F1 || fl.Test.F1 != sl.Test.F1 {
		t.Errorf("follower result (%s F1 %.4f/%.4f) diverges from solo (%s F1 %.4f/%.4f): attached features differ from computed ones",
			fl.LayerName, fl.Train.F1, fl.Test.F1, sl.LayerName, sl.Train.F1, sl.Test.F1)
	}

	st := c.Stats()
	if st.Leaders != 1 || st.Followers != 1 || st.Solos != 0 {
		t.Errorf("stats = %+v, want 1 leader + 1 follower", st)
	}
	if st.DedupFLOPs <= 0 {
		t.Errorf("dedup FLOPs = %d, want > 0", st.DedupFLOPs)
	}
	drained(t, c)
}

func TestSharedRunLeaderFaultPromotesFollower(t *testing.T) {
	// Chaos: the leader's second inference stage fails mid-pass (after the
	// first stage already published into the handoff). The follower must be
	// promoted with the typed fault, resume from the leader's partial
	// progress, and finish the group's work.
	defer faultinject.DisarmAll()
	faultinject.Arm(core.FaultStage+":infer", faultinject.FailNth(2))

	c := newFakeCoordinator(t)
	const rows = 32
	specs := []core.Spec{tinySpec(t, rows, 2, 11), tinySpec(t, rows, 2, 11)}
	tickets := []*share.Ticket{join(t, c, specs[0]), join(t, c, specs[1])}
	results := runAll(tickets, specs)
	failed, promoted := results[0], results[1]

	if failed.err == nil {
		t.Fatal("the leader did not fail although the infer failpoint was armed")
	}
	if _, ok := faultinject.AsFault(failed.err); !ok {
		t.Errorf("leader error %v is not the typed injected fault", failed.err)
	}
	if !promoted.promoted || promoted.res == nil {
		t.Fatalf("the follower was not promoted (errors: %v / %v)", failed.err, promoted.err)
	}
	if promoted.err != nil {
		t.Fatalf("promoted follower failed: %v", promoted.err)
	}
	if promoted.role != share.Leader {
		t.Errorf("promoted member's role = %v, want Leader", promoted.role)
	}
	// The promoted run resumed the dead leader's partial progress: stage 1
	// attached from the handoff, stage 2 ran live.
	if promoted.res.Cache.StagesShared != 1 || promoted.res.Cache.StagesExecuted != 1 {
		t.Errorf("promoted cache report = %+v, want 1 shared / 1 executed", promoted.res.Cache)
	}

	st := c.Stats()
	if st.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", st.Promotions)
	}
	if st.Leaders != 2 || st.Followers != 0 {
		t.Errorf("stats = %+v, want 2 leaders (1 failed + 1 promoted)", st)
	}
	drained(t, c)
}

// TestPromotedPassCoversEveryFollower is the regression test for promotion
// by join order: a 5-layer leader dies at its first stage while a 2-layer
// follower and then a 4-layer one are parked. Promoting the 2-layer one
// would leave the 4-layer follower attaching an incomplete handoff — running
// stages live while priced as a follower and credited as deduplicated. Every
// member that reports follower must have attached all of its layers.
func TestPromotedPassCoversEveryFollower(t *testing.T) {
	defer faultinject.DisarmAll()
	c := newFakeCoordinator(t)
	const rows = 32
	var specs []core.Spec
	var tickets []*share.Ticket
	for _, layers := range []int{5, 2, 4} {
		spec := tinySpec(t, rows, layers, 7)
		spec.ModelName = "tiny-resnet50"
		specs = append(specs, spec)
		tickets = append(tickets, join(t, c, spec))
	}
	results := make([]memberResult, len(tickets))
	var wg sync.WaitGroup
	for i := 1; i < len(tickets); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runJoined(tickets[i], specs[i])
		}(i)
		share.WaitParked(c, tickets[i]) // the 2-layer follower parks first
	}
	faultinject.Arm(core.FaultStage+":infer", faultinject.FailNth(1))
	results[0] = runJoined(tickets[0], specs[0])
	wg.Wait()

	if results[0].err == nil {
		t.Fatal("the leader did not fail although the infer failpoint was armed")
	}
	var followers, promoted int
	for i, r := range results[1:] {
		if r.err != nil {
			t.Fatalf("member %d (%d layers): %v", i+1, r.layers, r.err)
		}
		switch r.role {
		case share.Follower:
			followers++
			if k := r.res.Cache; k.StagesShared != r.layers || k.StagesExecuted != 0 {
				t.Errorf("%d-layer follower cache report = %+v, want %d shared / 0 executed", r.layers, k, r.layers)
			}
		case share.Leader:
			promoted++
			if r.layers != 4 {
				t.Errorf("promoted the %d-layer follower, want the 4-layer one", r.layers)
			}
		}
	}
	if followers != 1 || promoted != 1 {
		t.Errorf("got %d followers / %d promoted, want 1/1", followers, promoted)
	}
	drained(t, c)
}

func TestFingerprintGates(t *testing.T) {
	base := tinySpec(t, 16, 2, 7)
	if _, ok := core.ShareFingerprint(base); !ok {
		t.Fatal("staged spec should be shareable")
	}
	lazy := base
	lazy.PlanKind = plan.Lazy
	if _, ok := core.ShareFingerprint(lazy); ok {
		t.Error("lazy plan must not share")
	}

	// Identity is content-addressed: a different seed (different weights)
	// must not collide, while an identical spec must.
	fp1, _ := core.ShareFingerprint(base)
	same, _ := core.ShareFingerprint(tinySpec(t, 16, 2, 7))
	if fp1.Model != same.Model || fp1.WeightsSum != same.WeightsSum || fp1.DataSum != same.DataSum {
		t.Error("identical specs produced different fingerprints")
	}
	other, ok := core.ShareFingerprint(tinySpec(t, 16, 2, 8))
	if !ok {
		t.Fatal("seed-8 spec should be shareable")
	}
	if other.WeightsSum == fp1.WeightsSum {
		t.Error("different seeds share a weights checksum")
	}
	if fp1.InferenceFLOPs <= 0 {
		t.Errorf("fingerprint FLOPs = %d, want > 0", fp1.InferenceFLOPs)
	}
}

func TestFollowerPriceBelowFull(t *testing.T) {
	spec := tinySpec(t, 32, 2, 7)
	full, err := core.Price(spec)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := core.PriceFollower(spec)
	if err != nil {
		t.Fatal(err)
	}
	if follower >= full {
		t.Errorf("follower price %d not below full price %d", follower, full)
	}
	if follower <= 0 {
		t.Errorf("follower price = %d, want > 0 (storage+user memory remains)", follower)
	}
}
