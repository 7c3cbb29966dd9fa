package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/lifecycle"
	"repro/internal/share"
)

// shareWindow is how long after the sharing-on flood's first arrival its
// group accepts joiners. Nobody waits for it, so it costs the throughput
// measurement nothing; the flood launches every request at once, so every
// one arrives while the leader's pass is still running.
const shareWindow = 250 * time.Millisecond

// SharePoint is one side of the shared-inference comparison: the same flood
// of identical runs with the coalescer off or on.
type SharePoint struct {
	// Label is "off" or "on".
	Label string
	// Runs is how many identical requests the flood issued.
	Runs int
	// Leaders, Followers, and Solos partition the flood by sharing role
	// (with sharing off, every run is a solo by definition).
	Leaders, Followers, Solos int64
	// DedupFLOPs is modeled inference work followers did not repeat.
	DedupFLOPs int64
	// ElapsedSec is wall-clock time for the whole flood to drain.
	ElapsedSec float64
	// RunsPerSec is completed runs per second of wall clock.
	RunsPerSec float64
}

// ShareResult is the multi-query shared-inference exhibit: a flood of
// identical /run-shaped workloads executed twice — once with every run
// computing its own partial-CNN pass, once with the internal/share coalescer
// batching them behind one leader. The Vista cost model (Section 4) prices
// the CNN pass as the dominant cost, so deduplicating it across N identical
// queries should approach N× on the inference portion.
type ShareResult struct {
	// Rows and Parallel describe the workload: Parallel identical runs of
	// Rows rows each.
	Rows, Parallel int
	// Points are sharing off, then on.
	Points []SharePoint
}

// ShareThroughput floods Parallel identical runs with sharing off and on and
// reports the throughput ratio. rows <= 0 picks a default sized so both
// floods together stay well under a minute.
func ShareThroughput(rows int) (*ShareResult, error) {
	if rows <= 0 {
		rows = 48
	}
	const parallel = 8

	// Every request is byte-identical — same dataset seed, same model, same
	// layers — exactly the shape the coalescer fingerprints. Each run still
	// gets its own Spec (and spill dir) over the shared catalog entry, as the
	// server's handleRun would build per request.
	cat := data.NewCatalog()
	specs := make([]core.Spec, parallel)
	for i := range specs {
		spec, err := admissionSpec(cat, rows, 7)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}

	res := &ShareResult{Rows: rows, Parallel: parallel}
	off, err := shareFlood(specs, nil)
	if err != nil {
		return nil, err
	}
	coord, err := share.New(share.Config{Window: shareWindow})
	if err != nil {
		return nil, err
	}
	on, err := shareFlood(specs, coord)
	if err != nil {
		return nil, err
	}
	res.Points = []SharePoint{*off, *on}
	return res, nil
}

// shareFlood runs every spec concurrently, coalescing through coord when it
// is non-nil, and reports wall-clock throughput plus the role split.
func shareFlood(specs []core.Spec, coord *share.Coordinator) (*SharePoint, error) {
	outs, elapsed := flood(&lifecycle.Runner{Share: coord}, specs)
	for _, out := range outs {
		if out.Err != nil {
			return nil, fmt.Errorf("experiments: share flood: %w", out.Err)
		}
	}

	pt := &SharePoint{
		Label:      "on",
		Runs:       len(specs),
		Solos:      int64(len(specs)),
		ElapsedSec: elapsed.Seconds(),
	}
	if elapsed > 0 {
		pt.RunsPerSec = float64(len(specs)) / elapsed.Seconds()
	}
	if coord == nil {
		pt.Label = "off"
		return pt, nil
	}
	st := coord.Stats()
	if st.OpenGroups != 0 || st.WaitingMembers != 0 || st.LiveGroups != 0 {
		return nil, fmt.Errorf("experiments: share flood left the coordinator undrained: %+v", st)
	}
	pt.Leaders, pt.Followers, pt.Solos = st.Leaders, st.Followers, st.Solos
	pt.DedupFLOPs = st.DedupFLOPs
	return pt, nil
}

// flood runs every spec concurrently through runner — the same run lifecycle
// the server's /run goes through (join, follower-awaits-leader, role-priced
// admission, run, settle) — and returns each run's outcome plus the wall
// clock the whole flood took to drain.
func flood(runner *lifecycle.Runner, specs []core.Spec) ([]lifecycle.Outcome, time.Duration) {
	outs := make([]lifecycle.Outcome, len(specs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = runner.Do(context.Background(), specs[i], "foods")
		}(i)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// Tables lays out the comparison, one row per sharing mode; speedup is each
// mode's throughput over sharing-off's.
func (r *ShareResult) Tables() []Table {
	t := Table{
		Title: fmt.Sprintf("Multi-query shared inference — %d identical runs of %d rows", r.Parallel, r.Rows),
		Header: []string{"sharing", "runs", "leaders", "followers", "solos", "dedup FLOPs",
			"elapsed(s)", "runs/s", "speedup"},
	}
	for _, p := range r.Points {
		t.add(p.Label, fmt.Sprint(p.Runs), fmt.Sprint(p.Leaders), fmt.Sprint(p.Followers),
			fmt.Sprint(p.Solos), fmt.Sprint(p.DedupFLOPs), fmt.Sprintf("%.2f", p.ElapsedSec),
			fmt.Sprintf("%.2f", p.RunsPerSec), fmt.Sprintf("%.2fx", p.RunsPerSec/r.Points[0].RunsPerSec))
	}
	return []Table{t}
}
