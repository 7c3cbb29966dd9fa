package lifecycle

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/calib"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/share"
)

// tinySpec is a small real workload.
func tinySpec(t *testing.T) core.Spec {
	t.Helper()
	structRows, imageRows, err := data.Generate(data.Foods().WithRows(24))
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{
		Nodes: 2, CoresPerNode: 2, MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  "tiny-alexnet", NumLayers: 1,
		Downstream: core.DefaultDownstream(),
		StructRows: structRows, ImageRows: imageRows,
		Seed: 7,
	}
}

func newAdmission(t *testing.T, budget int64, clk clock.Clock) *admission.Controller {
	t.Helper()
	ctrl, err := admission.New(admission.Config{
		BudgetBytes: budget, QueueDepth: 2, QueueTimeout: 10 * time.Second, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// settled fails the test unless every grant was released and every sharing
// ticket finished.
func settled(t *testing.T, r *Runner) {
	t.Helper()
	if s := r.Admit.Stats(); s.InFlightBytes != 0 || s.InFlightRuns != 0 || s.QueueDepth != 0 {
		t.Errorf("admission not drained: %+v", s)
	}
	if s := r.Share.Stats(); s.OpenGroups != 0 || s.WaitingMembers != 0 || s.LiveGroups != 0 {
		t.Errorf("share coordinator not drained: %+v", s)
	}
}

func TestDoCompletedRecordsCalibrationAndSettles(t *testing.T) {
	// Calibration reads the run's storage counters from its root span, so
	// the spec runs no sampler.
	spec := tinySpec(t)
	price, err := core.Price(spec)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := share.New(share.Config{Window: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := calib.Open(calib.Config{})
	r := &Runner{Share: coord, Admit: newAdmission(t, price, nil), Calib: rec}

	out := r.Do(context.Background(), spec, "foods")
	if out.Kind != Completed || out.Err != nil || out.Result == nil {
		t.Fatalf("outcome = %+v, want Completed", out)
	}
	if out.RunSeq != 1 || out.GroupSize != 1 || out.Role != share.Solo {
		t.Errorf("seq/group/role = %d/%d/%v, want 1/1/solo", out.RunSeq, out.GroupSize, out.Role)
	}
	if out.CompareErr != nil || out.RecordErr != nil {
		t.Errorf("calibration errors: compare=%v record=%v", out.CompareErr, out.RecordErr)
	}
	if rep := rec.Report(); rep.Runs != 1 || rep.Samples == 0 {
		t.Errorf("recorder saw %d runs and %d storage samples, want 1 run with storage evidence", rep.Runs, rep.Samples)
	}
	if s := r.Admit.Stats(); s.Admitted != 1 {
		t.Errorf("admitted = %d, want 1", s.Admitted)
	}
	settled(t, r)
}

// TestDoFailedRunSettlesTicketAndGrant is the exactly-once rule on the error
// path: a run that dies in the engine must still hand back its budget and
// finish its ticket (as a started member, not an aborted one).
func TestDoFailedRunSettlesTicketAndGrant(t *testing.T) {
	defer faultinject.DisarmAll()
	faultinject.Arm(core.FaultStage, faultinject.FailNth(1)) // the run dies at its first stage
	spec := tinySpec(t)
	coord, err := share.New(share.Config{Window: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Share: coord, Admit: newAdmission(t, 1<<50, nil)}
	out := r.Do(context.Background(), spec, "foods")
	if out.Kind != Failed || out.Err == nil || out.Result != nil {
		t.Fatalf("outcome = %+v, want Failed with an error", out)
	}
	if out.RunSeq != 1 {
		t.Errorf("RunSeq = %d, want 1 (the run started)", out.RunSeq)
	}
	if s := coord.Stats(); s.Aborted != 0 || s.Solos != 1 {
		t.Errorf("share stats = %+v, want one started solo and no aborts", s)
	}
	settled(t, r)
}

func TestDoAdmissionRejections(t *testing.T) {
	spec := tinySpec(t)
	price, err := core.Price(spec)
	if err != nil {
		t.Fatal(err)
	}

	over := &Runner{Admit: newAdmission(t, price-1, nil)}
	if out := over.Do(context.Background(), spec, "foods"); out.Kind != RejectedOverload ||
		!errors.Is(out.Err, admission.ErrOversize) || out.RunSeq != 0 {
		t.Errorf("oversize outcome = %+v, want RejectedOverload before any run started", out)
	}

	// A full budget queues the run; advancing the fake clock past the queue
	// timeout expires it with the controller's live retry hint attached.
	fc := clock.NewFake()
	r := &Runner{Admit: newAdmission(t, price, fc)}
	hold, err := r.Admit.Admit(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	outc := make(chan Outcome, 1)
	go func() { outc <- r.Do(context.Background(), spec, "foods") }()
	fc.BlockUntil(1) // the queued run's deadline timer is armed
	fc.Advance(10 * time.Second)
	out := <-outc
	if out.Kind != RejectedDeadline || !errors.Is(out.Err, admission.ErrDeadline) {
		t.Fatalf("queued outcome = %+v, want RejectedDeadline", out)
	}
	if out.RetryAfter <= 0 || out.RetryAfter != r.Admit.RetryHint() {
		t.Errorf("RetryAfter = %v, want the controller's hint %v", out.RetryAfter, r.Admit.RetryHint())
	}
	hold.Release()
	settled(t, r)
}

func TestDoAbandoned(t *testing.T) {
	spec := tinySpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// Cancelled before joining a sharing group: no group opens and no run
	// ever starts.
	coord, err := share.New(share.Config{Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	shared := &Runner{Share: coord}
	if out := shared.Do(ctx, spec, "foods"); out.Kind != Abandoned || out.RunSeq != 0 ||
		!errors.Is(out.Err, share.ErrJoinCancelled) {
		t.Errorf("outcome at Join = %+v, want Abandoned with ErrJoinCancelled before any run", out)
	}
	settled(t, shared)

	// Cancelled with nothing to wait on: the run starts and aborts at once.
	out := (&Runner{}).Do(ctx, spec, "foods")
	if out.Kind != Abandoned || out.RunSeq != 1 || !errors.Is(out.Err, context.Canceled) {
		t.Errorf("solo outcome = %+v, want Abandoned run 1 wrapping context.Canceled", out)
	}
}
