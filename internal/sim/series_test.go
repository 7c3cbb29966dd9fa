package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/sampler"
)

const testMB = 1 << 20

// simulatedWithStorage extends the shared fixture with the memory-model
// fields CompareSeries reads.
func simulatedWithStorage() Result {
	r := simulated()
	r.BaseStorageBytes = 1 * testMB
	r.StorageCapBytes = 16 * testMB
	r.Layers[0].LiveStorageBytes = 4 * testMB
	r.Layers[0].SpilledBytes = 1 * testMB
	r.Layers[1].LiveStorageBytes = 2 * testMB
	return r
}

// measuredRecording builds a recording whose final frame carries the engine's
// peak-storage and spill counters. Earlier frames hold other values, and the
// pool gauges disagree with the counters: only the final frame's counters may
// be read.
func measuredRecording() *sampler.Recording {
	t0 := time.Unix(0, 0)
	frame := func(ms int, stage string, peakMB, spillMB, poolMB float64) sampler.Frame {
		return sampler.Frame{
			T: t0.Add(time.Duration(ms) * time.Millisecond), Stage: stage,
			Values: map[string]float64{
				"vista_engine_peak_storage_bytes":                peakMB * testMB,
				"vista_engine_bytes_spilled_total":               spillMB * testMB,
				`vista_pool_used_bytes{node="0",pool="storage"}`: poolMB * testMB,
				`vista_pool_used_bytes{node="1",pool="storage"}`: poolMB * testMB,
			},
		}
	}
	return &sampler.Recording{
		Every: 10 * time.Millisecond,
		Start: t0, End: t0.Add(900 * time.Millisecond),
		Frames: []sampler.Frame{
			frame(0, "", 0, 0, 0),
			frame(400, "infer:fc6", 5, 1, 2.5),
			frame(900, "", 6.5, 1.5, 1),
		},
	}
}

func TestCompareSeries(t *testing.T) {
	rep := CompareSeries(simulatedWithStorage(), measuredRecording())
	want := SeriesReport{
		// max(base 1, fc6 4, fc7 2) and the layers' spill summed.
		PredPeakStorageBytes: 4 * testMB,
		PredSpillBytes:       1 * testMB,
		// The final frame's counters, exactly.
		MeasPeakStorageBytes: int64(6.5 * testMB),
		MeasSpillBytes:       int64(1.5 * testMB),
	}
	if rep != want {
		t.Errorf("report = %+v, want %+v", rep, want)
	}
}

func TestCompareSeriesCrashedSim(t *testing.T) {
	r := simulatedWithStorage()
	r.Crash = errors.New("storage exhausted")
	rep := CompareSeries(r, measuredRecording())
	if rep.PredPeakStorageBytes != 0 || rep.PredSpillBytes != 0 {
		t.Errorf("predicted %d/%d on a crashed sim", rep.PredPeakStorageBytes, rep.PredSpillBytes)
	}
	// Measurements survive the crash.
	if rep.MeasPeakStorageBytes != int64(6.5*testMB) || rep.MeasSpillBytes != int64(1.5*testMB) {
		t.Errorf("measurements lost: peak=%d spill=%d", rep.MeasPeakStorageBytes, rep.MeasSpillBytes)
	}
}

func TestCompareSeriesMissingCounters(t *testing.T) {
	// A final frame without the engine counters, and a recording without
	// frames, measure nothing rather than failing.
	rec := measuredRecording()
	rec.Frames = append(rec.Frames, sampler.Frame{T: rec.End, Values: map[string]float64{}})
	for _, rec := range []*sampler.Recording{rec, {}} {
		rep := CompareSeries(simulatedWithStorage(), rec)
		if rep.MeasPeakStorageBytes != 0 || rep.MeasSpillBytes != 0 {
			t.Errorf("measured %d/%d without counters", rep.MeasPeakStorageBytes, rep.MeasSpillBytes)
		}
		if rep.PredPeakStorageBytes != 4*testMB {
			t.Errorf("prediction = %d, want 4 MiB", rep.PredPeakStorageBytes)
		}
	}
}

func TestRenderSeriesReport(t *testing.T) {
	var b strings.Builder
	RenderSeriesReport(&b, CompareSeries(simulatedWithStorage(), measuredRecording()))
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
