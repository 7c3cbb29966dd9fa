package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/lifecycle"
	"repro/internal/memory"
	"repro/internal/obs"
)

// AdmissionPoint is one budget setting of the admission-throughput sweep:
// the same request flood replayed against one controller budget.
type AdmissionPoint struct {
	// Label names the budget as a multiple of one run's admission cost
	// ("1x", "2x", "4x", "unlimited").
	Label string
	// BudgetBytes is the controller's modeled-memory budget.
	BudgetBytes int64
	// Requests, Admitted, and Rejected partition the flood's outcomes.
	Requests, Admitted, Rejected int
	// ElapsedSec is wall-clock time for the whole flood to drain.
	ElapsedSec float64
	// RunsPerSec is admitted-and-completed runs per second of wall clock.
	RunsPerSec float64
	// P99WaitMs is the 99th-percentile admission queue wait, from the
	// vista_admission_queue_wait_seconds histogram.
	P99WaitMs float64
}

// AdmissionResult is the "throughput under admission control" exhibit: the
// same parallel /run flood priced by the Section 4.1 memory model and
// replayed at increasing budgets. Tight budgets serialize runs (low
// throughput, long queue waits); once the budget covers the whole flood the
// controller stops being the bottleneck.
type AdmissionResult struct {
	// RunCostBytes is the admission price of one request (Equations 9-15
	// peak, summed over nodes).
	RunCostBytes int64
	// Rows and Parallel describe the workload: Parallel concurrent runs of
	// Rows rows each.
	Rows, Parallel int
	Points         []AdmissionPoint
}

// admissionSpec builds the core.Spec one flood request executes: the same
// defaults vista-server applies to a POST /run body, over tables obtained
// from the flood's catalog the way handleRun obtains them.
func admissionSpec(cat *data.Catalog, rows int, seed int64) (core.Spec, error) {
	tables, err := cat.Get(data.Foods().WithRows(rows))
	if err != nil {
		return core.Spec{}, err
	}
	return core.Spec{
		Nodes: 2, CoresPerNode: 4,
		MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  "tiny-alexnet", NumLayers: 2,
		Downstream: core.DefaultDownstream(),
		Seed:       seed,
	}.WithTables(tables), nil
}

// AdmissionThroughput measures end-to-end /run throughput and p99 queue
// wait as the admission budget grows from "one run at a time" to
// effectively unlimited. rows <= 0 picks a default sized so the whole
// sweep stays under about a minute.
func AdmissionThroughput(rows int) (*AdmissionResult, error) {
	if rows <= 0 {
		rows = 48
	}
	const parallel = 12

	// Every request reads the one catalog entry for this dataset (as the
	// server's handleRun does); seeds differ so the floods are not
	// byte-identical, but the price is row-count driven and shared.
	cat := data.NewCatalog()
	specs := make([]core.Spec, parallel)
	for i := range specs {
		spec, err := admissionSpec(cat, rows, int64(100+i))
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	cost, err := core.Price(specs[0])
	if err != nil {
		return nil, err
	}

	res := &AdmissionResult{RunCostBytes: cost, Rows: rows, Parallel: parallel}
	budgets := []struct {
		label string
		bytes int64
	}{
		{"1x", cost},
		{"2x", 2 * cost},
		{"4x", 4 * cost},
		{"unlimited", int64(parallel) * cost},
	}
	for _, b := range budgets {
		pt, err := admissionFlood(specs, b.label, b.bytes)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

// admissionFlood replays the request set against one controller budget and
// reports throughput plus queue-wait tail.
func admissionFlood(specs []core.Spec, label string, budget int64) (*AdmissionPoint, error) {
	reg := obs.NewRegistry()
	ctrl, err := admission.New(admission.Config{
		BudgetBytes:  budget,
		QueueDepth:   len(specs),
		QueueTimeout: 5 * time.Minute,
		Metrics:      reg,
	})
	if err != nil {
		return nil, err
	}

	outs, elapsed := flood(&lifecycle.Runner{Admit: ctrl}, specs)
	var admitted, rejected int
	for _, out := range outs {
		switch out.Kind {
		case lifecycle.Completed:
			admitted++
		case lifecycle.RejectedDeadline, lifecycle.RejectedOverload:
			rejected++
		default:
			return nil, fmt.Errorf("experiments: admission flood %s: %w", label, out.Err)
		}
	}

	pt := &AdmissionPoint{
		Label:       label,
		BudgetBytes: budget,
		Requests:    len(specs),
		Admitted:    admitted,
		Rejected:    rejected,
		ElapsedSec:  elapsed.Seconds(),
	}
	if elapsed > 0 {
		pt.RunsPerSec = float64(admitted) / elapsed.Seconds()
	}
	if h := reg.FindHistogram("vista_admission_queue_wait_seconds"); h != nil {
		if q, ok := h.Quantile(0.99); ok {
			pt.P99WaitMs = q * 1000
		}
	}
	// The flood must drain the pool completely; a leak here would also
	// leak in the server.
	if st := ctrl.Stats(); st.InFlightBytes != 0 || st.InFlightRuns != 0 || st.QueueDepth != 0 {
		return nil, fmt.Errorf("experiments: admission flood %s left charges in flight: %+v", label, st)
	}
	return pt, nil
}

// fmtGiB renders a byte count as binary gigabytes for the text table.
func fmtGiB(b int64) string { return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30)) }

// Render prints the sweep as a text table.
func (r *AdmissionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput under admission control — %d parallel runs of %d rows, run cost %s modeled\n",
		r.Parallel, r.Rows, fmtGiB(r.RunCostBytes))
	fmt.Fprintf(&b, "%-10s %12s %9s %9s %11s %8s %14s\n",
		"budget", "bytes", "admitted", "rejected", "elapsed(s)", "runs/s", "p99 wait(ms)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10s %12s %9d %9d %11.2f %8.2f %14.1f\n",
			p.Label, fmtGiB(p.BudgetBytes), p.Admitted, p.Rejected,
			p.ElapsedSec, p.RunsPerSec, p.P99WaitMs)
	}
	return b.String()
}

// CSV implements CSVExporter: one row per budget point.
func (r *AdmissionResult) CSV() ([]string, [][]string) {
	header := []string{"budget", "budget_bytes", "requests", "admitted", "rejected",
		"elapsed_sec", "runs_per_sec", "p99_queue_wait_ms"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%d", p.BudgetBytes),
			fmt.Sprintf("%d", p.Requests),
			fmt.Sprintf("%d", p.Admitted),
			fmt.Sprintf("%d", p.Rejected),
			f2s(p.ElapsedSec),
			f2s(p.RunsPerSec),
			f2s(p.P99WaitMs),
		})
	}
	return header, rows
}
