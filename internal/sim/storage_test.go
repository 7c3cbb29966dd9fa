package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
)

const testMB = 1 << 20

// simulatedWithStorage extends the shared fixture with the memory-model
// fields CompareStorage reads.
func simulatedWithStorage() Result {
	r := simulated()
	r.BaseStorageBytes = 1 * testMB
	r.StorageCapBytes = 16 * testMB
	r.Layers[0].LiveStorageBytes = 4 * testMB
	r.Layers[0].SpilledBytes = 1 * testMB
	r.Layers[1].LiveStorageBytes = 2 * testMB
	return r
}

// storageTrace is measuredTrace with the engine's final peak-storage and
// spill counters on its root. Its infer:fc6 stage carries attributes under
// the same keys with other values: only the root's may be read.
func storageTrace() *obs.Span {
	root := measuredTrace()
	var infer *obs.Span
	for _, sp := range root.Children() {
		if sp.Name() == "infer:fc6" {
			infer = sp
		}
	}
	infer.SetAttr(AttrPeakStorageBytes, 2*testMB)
	infer.SetAttr(AttrSpilledBytes, 3*testMB)
	root.SetAttr(AttrPeakStorageBytes, int64(6.5*testMB))
	root.SetAttr(AttrSpilledBytes, int64(1.5*testMB))
	return root
}

func TestCompareStorage(t *testing.T) {
	rep := CompareStorage(simulatedWithStorage(), storageTrace())
	want := StorageReport{
		// max(base 1, fc6 4, fc7 2) and the layers' spill summed.
		PredPeakStorageBytes: 4 * testMB,
		PredSpillBytes:       1 * testMB,
		// The root span's counters, exactly.
		MeasPeakStorageBytes: int64(6.5 * testMB),
		MeasSpillBytes:       int64(1.5 * testMB),
	}
	if rep != want {
		t.Errorf("report = %+v, want %+v", rep, want)
	}
}

func TestCompareStorageCrashedSim(t *testing.T) {
	r := simulatedWithStorage()
	r.Crash = errors.New("storage exhausted")
	rep := CompareStorage(r, storageTrace())
	if rep.PredPeakStorageBytes != 0 || rep.PredSpillBytes != 0 {
		t.Errorf("predicted %d/%d on a crashed sim", rep.PredPeakStorageBytes, rep.PredSpillBytes)
	}
	// Measurements survive the crash.
	if rep.MeasPeakStorageBytes != int64(6.5*testMB) || rep.MeasSpillBytes != int64(1.5*testMB) {
		t.Errorf("measurements lost: peak=%d spill=%d", rep.MeasPeakStorageBytes, rep.MeasSpillBytes)
	}
}

func TestCompareStorageMissingAttrs(t *testing.T) {
	// A root without the storage attributes measures nothing rather than
	// failing, even when a child carries them.
	root := obs.StartSpan("run")
	root.StartChild("ingest").SetAttr(AttrPeakStorageBytes, testMB)
	rep := CompareStorage(simulatedWithStorage(), root)
	if rep.MeasPeakStorageBytes != 0 || rep.MeasSpillBytes != 0 {
		t.Errorf("measured %d/%d without root attributes", rep.MeasPeakStorageBytes, rep.MeasSpillBytes)
	}
	if rep.PredPeakStorageBytes != 4*testMB {
		t.Errorf("prediction = %d, want 4 MiB", rep.PredPeakStorageBytes)
	}
}

func TestRenderStorageReport(t *testing.T) {
	var b strings.Builder
	RenderStorageReport(&b, CompareStorage(simulatedWithStorage(), storageTrace()))
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want a header and two rows:\n%s", len(lines), b.String())
	}
	for i, want := range [][]string{
		{"estimated", "measured"},
		{"peak storage", "4.0 MB", "6.5 MB", "(drift 1.62x)"},
		{"spill", "1.0 MB", "1.5 MB", "(drift 1.50x)"},
	} {
		for _, w := range want {
			if !strings.Contains(lines[i], w) {
				t.Errorf("line %d = %q, missing %q", i, lines[i], w)
			}
		}
	}
}
