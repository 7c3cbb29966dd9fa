package share_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

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
	res      *core.Result
	err      error
}

// runShared drives one spec through the coordinator exactly as the server's
// handleRun does: join, follower-awaits-leader, attach source/sink by role,
// start, run, finish.
func runShared(t *testing.T, c *share.Coordinator, spec core.Spec) memberResult {
	t.Helper()
	fp, ok := core.ShareFingerprint(spec)
	if !ok {
		t.Error("spec unexpectedly not shareable")
		return memberResult{}
	}
	tk, err := c.Join(context.Background(),
		share.Identity{Model: fp.Model, WeightsSum: fp.WeightsSum, DataSum: fp.DataSum},
		share.Member{NumLayers: fp.NumLayers, InferenceFLOPs: fp.InferenceFLOPs})
	if err != nil {
		t.Errorf("Join: %v", err)
		return memberResult{}
	}
	out := memberResult{role: tk.Role()}
	if tk.Role() == share.Follower {
		att, aerr := tk.AwaitLeader(context.Background())
		if aerr != nil {
			tk.Finish(aerr)
			out.err = aerr
			return out
		}
		out.promoted = att.Promoted
		spec.FeatureSource = att.Source
		out.role = tk.Role()
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

func TestSharedRunEndToEnd(t *testing.T) {
	c, err := share.New(share.Config{Window: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 48

	// The leader explores two layers, the follower one: the follower's
	// feature set is a subset of the leader's, so one pass covers both.
	var wg sync.WaitGroup
	results := make([]memberResult, 2)
	for i, layers := range []int{2, 1} {
		wg.Add(1)
		go func(i, layers int) {
			defer wg.Done()
			results[i] = runShared(t, c, tinySpec(t, rows, layers, 7))
		}(i, layers)
	}
	wg.Wait()

	var leader, follower memberResult
	for _, r := range results {
		switch r.role {
		case share.Leader:
			leader = r
		case share.Follower:
			follower = r
		default:
			t.Fatalf("member sealed as %v; the group did not form", r.role)
		}
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
	if st.OpenGroups != 0 || st.WaitingMembers != 0 || st.LiveGroups != 0 {
		t.Errorf("coordinator not drained: %+v", st)
	}
}

func TestSharedRunLeaderFaultPromotesFollower(t *testing.T) {
	// Chaos: the leader's second inference stage fails mid-pass (after the
	// first stage already published into the handoff). The follower must be
	// promoted with the typed fault, resume from the leader's partial
	// progress, and finish the group's work.
	defer faultinject.DisarmAll()
	faultinject.Arm(core.FaultStage+":infer", faultinject.FailNth(2))

	c, err := share.New(share.Config{Window: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 32

	var wg sync.WaitGroup
	results := make([]memberResult, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runShared(t, c, tinySpec(t, rows, 2, 11))
		}(i)
	}
	wg.Wait()

	var failed, promoted memberResult
	for _, r := range results {
		if r.promoted {
			promoted = r
		} else {
			failed = r
		}
	}
	if failed.err == nil {
		t.Fatal("no member failed although the infer failpoint was armed")
	}
	if _, ok := faultinject.AsFault(failed.err); !ok {
		t.Errorf("leader error %v is not the typed injected fault", failed.err)
	}
	if promoted.res == nil {
		t.Fatalf("no follower was promoted (errors: %v / %v)", results[0].err, results[1].err)
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
	if st.OpenGroups != 0 || st.WaitingMembers != 0 || st.LiveGroups != 0 {
		t.Errorf("coordinator not drained after the fault: %+v", st)
	}
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
	premat := base
	premat.PreMaterializeBase = true
	if _, ok := core.ShareFingerprint(premat); ok {
		t.Error("pre-materialized base must not share")
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

// Guard against silently-unused imports when assertions change.
var _ = errors.Is
