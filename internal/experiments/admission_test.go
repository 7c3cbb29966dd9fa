package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// fakeAdmissionResult builds a synthetic sweep so the render/export paths
// are testable without running the (seconds-long) flood.
func fakeAdmissionResult() *AdmissionResult {
	return &AdmissionResult{
		RunCostBytes: 50 << 30,
		Rows:         48, Parallel: 12,
		Points: []AdmissionPoint{
			{Label: "1x", BudgetBytes: 50 << 30, Admitted: 12,
				ElapsedSec: 8, RunsPerSec: 1.5, P99WaitMs: 9000},
			{Label: "unlimited", BudgetBytes: 600 << 30, Admitted: 12,
				ElapsedSec: 7, RunsPerSec: 1.7, P99WaitMs: 1},
		},
	}
}

func TestAdmissionResultCSV(t *testing.T) {
	recs := records(t, fakeAdmissionResult().Tables())
	// A header, then 6 cells for each of the 2 budget rows.
	if len(recs) != 1+2*6 {
		t.Fatalf("got %d records: %q", len(recs), recs)
	}
	if got := recs[2]; got[1] != "1x" || got[2] != "admitted" || got[3] != "12" {
		t.Errorf("1x admitted record = %q", got)
	}
	if got := recs[7]; got[1] != "unlimited" || !strings.HasPrefix(got[0], "Throughput under admission control") {
		t.Errorf("unlimited record = %q", got)
	}
}

func TestAdmissionResultRender(t *testing.T) {
	out := text(t, fakeAdmissionResult().Tables())
	for _, want := range []string{"12 parallel runs of 48 rows", "50.0 GiB", "unlimited", "p99 wait(ms)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestAdmissionFloodSmoke runs one tiny flood end to end (the full budget
// sweep lives in the vista-bench exhibit; a single two-run point keeps the
// suite fast).
func TestAdmissionFloodSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real engine flood")
	}
	cat := data.NewCatalog()
	var specs []core.Spec
	for seed := int64(3); seed < 5; seed++ {
		spec, err := admissionSpec(cat, 24, seed)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	cost, err := core.Price(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	pt, err := admissionFlood(specs, "test", 2*cost)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Admitted != 2 || pt.Rejected != 0 {
		t.Fatalf("admitted %d rejected %d, want 2/0", pt.Admitted, pt.Rejected)
	}
	if pt.RunsPerSec <= 0 {
		t.Fatalf("runs/s = %v, want > 0", pt.RunsPerSec)
	}
}
