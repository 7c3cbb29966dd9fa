package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/tensor"
)

func smallOpts(t *testing.T) runOptions {
	t.Helper()
	return runOptions{
		dataset: "foods", rows: 120, model: "tiny-alexnet", layers: 2,
		nodes: 2, cores: 2, memGB: 32,
		planKind: "staged", placement: "aj", downstream: "logreg", seed: 1,
	}
}

// runBuf runs with captured stdout/stderr.
func runBuf(o runOptions) (stdout, stderr bytes.Buffer, err error) {
	err = run(context.Background(), o, &stdout, &stderr)
	return stdout, stderr, err
}

func TestRunEndToEnd(t *testing.T) {
	if _, _, err := runBuf(smallOpts(t)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunSaveDataAndModels(t *testing.T) {
	o := smallOpts(t)
	o.saveData = filepath.Join(t.TempDir(), "ds")
	o.saveModels = filepath.Join(t.TempDir(), "models")
	if _, _, err := runBuf(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(o.saveData, "structured.csv")); err != nil {
		t.Errorf("dataset not saved: %v", err)
	}
	entries, err := os.ReadDir(o.saveModels)
	if err != nil || len(entries) != 2 {
		t.Errorf("model artifacts: %v (%d entries)", err, len(entries))
	}
	// Round-trip: run again from the saved dataset.
	o2 := smallOpts(t)
	o2.dataDir = o.saveData
	if _, _, err := runBuf(o2); err != nil {
		t.Fatalf("run from saved data: %v", err)
	}
}

// deflateEraImage is a 1×2×3 image as builds before the raw float32 image
// format saved it (deflate-compressed rank, dims and payload).
const deflateEraImage = "\x04\xc0\x01\x01\x00\x10\x10\x03\xc0\xe3{\x99h\x8b\"\xaa\x1b,l\f\x80\x1e\x84\x1b\x1a^~\x00\x00\x00\xff\xff"

// TestRunRefusesDeflateEraDataset: -data over a directory saved by an earlier
// build fails before any run, naming the image file and the format it lacks.
func TestRunRefusesDeflateEraDataset(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "images", "0.img")
	if err := os.MkdirAll(filepath.Dir(img), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "structured.csv"), []byte("0,1,0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(img, []byte(deflateEraImage), 0o644); err != nil {
		t.Fatal(err)
	}
	o := smallOpts(t)
	o.dataDir = dir
	_, _, err := runBuf(o)
	if !errors.Is(err, tensor.ErrCorrupt) || !strings.Contains(err.Error(), img) ||
		!strings.Contains(err.Error(), "raw float32 image") || !strings.Contains(err.Error(), "-save-data") {
		t.Fatalf("run over a deflate-era dataset: %v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := []func(*runOptions){
		func(o *runOptions) { o.dataset = "nope" },
		func(o *runOptions) { o.planKind = "nope" },
		func(o *runOptions) { o.placement = "nope" },
		func(o *runOptions) { o.downstream = "nope" },
		func(o *runOptions) { o.model = "nope" },
		func(o *runOptions) { o.traceFormat = "nope" },
	}
	for i, mutate := range cases {
		o := smallOpts(t)
		mutate(&o)
		if _, _, err := runBuf(o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

// TestTraceReportOnStderr pins the stream split: -trace diagnostics must not
// contaminate stdout's machine-readable result rows.
func TestTraceReportOnStderr(t *testing.T) {
	o := smallOpts(t)
	o.trace = true
	stdout, stderr, err := runBuf(o)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(stdout.String(), "Stage trace:") {
		t.Errorf("trace report leaked to stdout:\n%s", stdout.String())
	}
	for _, want := range []string{"Stage trace: (GEMM kernel " + tensor.KernelName(), "Estimate vs measured", "Memory-model validation"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	if !strings.Contains(stdout.String(), "Stage breakdown:") {
		t.Errorf("result summary missing from stdout")
	}
}

// TestCalibWithTraceUnsampled: -calib and -trace read the run's storage
// counters from its span tree, so neither starts a sampler (Result.Series
// stays nil); the run still appends a calibration record and prints the
// memory table with both sides measured. Only the exporters sample.
func TestCalibWithTraceUnsampled(t *testing.T) {
	o := smallOpts(t)
	o.trace = true
	o.calibLog = filepath.Join(t.TempDir(), "calib.log")
	if o.exporting() {
		t.Fatal("-calib -trace counts as exporting: the run would sample")
	}
	_, stderr, err := runBuf(o)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stderr.String(), "appended calibration record to "+o.calibLog) {
		t.Errorf("no calibration record appended:\n%s", stderr.String())
	}
	var peakRow string
	for _, ln := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(ln, "peak storage") {
			peakRow = ln
		}
	}
	if !strings.Contains(stderr.String(), "Memory-model validation") || !strings.Contains(peakRow, "(drift ") {
		t.Errorf("memory table missing or unmeasured (peak row %q):\n%s", peakRow, stderr.String())
	}
	rep, _, err := calib.ReplayReport(o.calibLog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 1 || rep.Samples < 1 {
		t.Errorf("calibration log replays to %d runs and %d samples, want 1 run with samples", rep.Runs, rep.Samples)
	}
	for _, exp := range []runOptions{{traceOut: "t.json"}, {timeseriesOut: "s.csv"}} {
		if !exp.exporting() {
			t.Errorf("%+v does not count as exporting: its file would have no samples", exp)
		}
	}
}

// TestTraceOutChrome checks the exported trace file decodes and its events
// cover every span of the run's trace.
func TestTraceOutChrome(t *testing.T) {
	o := smallOpts(t)
	o.traceOut = filepath.Join(t.TempDir(), "trace.json")
	_, stderr, err := runBuf(o)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stderr.String(), "wrote chrome trace to") {
		t.Errorf("missing trace-out note on stderr:\n%s", stderr.String())
	}
	raw, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	// Every span of the run must appear: the root plus each stage. The exact
	// labels depend on the plan, but "run", "ingest", and at least one
	// train: span are always present.
	for _, want := range []string{"run", "ingest"} {
		if !names[want] {
			t.Errorf("trace events missing span %q (have %v)", want, names)
		}
	}
}

func TestTraceOutOTLP(t *testing.T) {
	o := smallOpts(t)
	o.traceOut = filepath.Join(t.TempDir(), "trace.otlp.json")
	o.traceFormat = "otlp"
	if _, _, err := runBuf(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var doc struct {
		ResourceSpans []json.RawMessage `json:"resourceSpans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("otlp file is not valid JSON: %v", err)
	}
	if len(doc.ResourceSpans) == 0 {
		t.Fatalf("otlp file has no resourceSpans")
	}
}

// TestTimeseriesOutCSV checks the CSV export exists, parses, and has
// monotonically non-decreasing timestamps.
func TestTimeseriesOutCSV(t *testing.T) {
	o := smallOpts(t)
	o.timeseriesOut = filepath.Join(t.TempDir(), "series.csv")
	if _, _, err := runBuf(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(o.timeseriesOut)
	if err != nil {
		t.Fatalf("read series: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 { // header + initial + final sample at minimum
		t.Fatalf("expected >= 3 CSV lines, got %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "unix_ns,stage,") {
		t.Errorf("bad CSV header: %q", lines[0])
	}
	var prev int64
	for i, ln := range lines[1:] {
		ns, err := strconv.ParseInt(strings.SplitN(ln, ",", 2)[0], 10, 64)
		if err != nil {
			t.Fatalf("row %d: bad unix_ns: %v", i, err)
		}
		if ns < prev {
			t.Errorf("row %d: timestamps not monotone (%d < %d)", i, ns, prev)
		}
		prev = ns
	}
}
