// Command vista runs a feature-transfer workload end-to-end on the real
// dataflow engine with an executable (Tiny) roster CNN: it generates a
// synthetic multimodal dataset, invokes the Vista optimizer, executes the
// chosen plan, trains the downstream model on every selected layer, and
// reports per-layer accuracy plus the run's instrumentation.
//
// With -calib <log-file> each run also appends its estimate-vs-measured
// calibration samples to an on-disk log, and `vista -calib <log-file> report`
// replays such a log (from this CLI or a vista-server's -calib-log) into the
// rolling drift report offline — identical to the server's GET /calibration.
//
// Example:
//
//	vista -dataset foods -rows 2000 -model tiny-resnet50 -layers 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/featurestore"
	"repro/internal/lifecycle"
	"repro/internal/memory"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/obs/sampler"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func main() {
	var (
		dataset    = flag.String("dataset", "foods", "dataset preset: foods or amazon")
		rows       = flag.Int("rows", 2000, "number of examples to generate")
		model      = flag.String("model", "tiny-alexnet", "roster CNN (tiny-alexnet, tiny-vgg16, tiny-resnet50)")
		layers     = flag.Int("layers", 3, "number of top feature layers to explore (|L|)")
		nodes      = flag.Int("nodes", 2, "simulated worker nodes")
		cores      = flag.Int("cores", 4, "cores per worker")
		memGB      = flag.Float64("mem", 32, "system memory per worker (GB)")
		planKind   = flag.String("plan", "staged", "logical plan: lazy, eager, or staged")
		placement  = flag.String("placement", "aj", "join placement: aj (after join) or bj (before join)")
		downstream = flag.String("downstream", "logreg", "downstream model: logreg, tree, or mlp")
		seed       = flag.Int64("seed", 7, "random seed")
		dataDir    = flag.String("data", "", "load the dataset from this directory instead of generating it")
		saveData   = flag.String("save-data", "", "write the generated dataset to this directory (one file per image)")
		saveModels = flag.String("save-models", "", "write per-layer trained model artifacts (JSON) to this directory")
		cacheDir   = flag.String("feature-cache", "", "materialize CNN features in this directory and reuse them across invocations")
		cacheMB    = flag.Int64("feature-cache-mb", 512, "feature cache byte budget in MiB (with -feature-cache)")
		trace      = flag.Bool("trace", false, "print (to stderr) the run's stage span tree and the simulator's estimate-vs-measured comparisons")
		traceOut   = flag.String("trace-out", "", "write the run's trace to this file (chrome://tracing / Perfetto loadable)")
		traceFmt   = flag.String("trace-format", "chrome", "trace file format: chrome (trace-event JSON) or otlp (OTLP-style JSON spans)")
		seriesOut  = flag.String("timeseries-out", "", "write the run's sampled time series to this file (.csv = CSV, otherwise JSON)")
		calibLog   = flag.String("calib", "", "calibration log file: append this run's estimate-vs-measured samples to it, or replay it with the 'report' subcommand (vista -calib <log> report)")
		calibJSON  = flag.Bool("calib-json", false, "with 'report': emit the calibration report as JSON, byte-identical to a server's GET /calibration over the same log")
	)
	flag.Parse()

	if flag.Arg(0) == "report" {
		if *calibLog == "" {
			fmt.Fprintln(os.Stderr, "vista: report requires -calib <log-file>")
			os.Exit(2)
		}
		if err := calibReport(*calibLog, *calibJSON, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "vista:", err)
			os.Exit(1)
		}
		return
	}

	opts := runOptions{
		dataset: *dataset, rows: *rows, model: *model, layers: *layers,
		nodes: *nodes, cores: *cores, memGB: *memGB,
		planKind: *planKind, placement: *placement, downstream: *downstream,
		seed: *seed, dataDir: *dataDir, saveData: *saveData, saveModels: *saveModels,
		cacheDir: *cacheDir, cacheMB: *cacheMB, trace: *trace,
		traceOut: *traceOut, traceFormat: *traceFmt, timeseriesOut: *seriesOut,
		calibLog: *calibLog,
	}
	// Ctrl-C / SIGTERM cancels the run context: the running stage starts no
	// further task and the executor aborts at the next stage boundary,
	// releasing tables, pool charges, and spill files before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "vista: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "vista:", err)
		os.Exit(1)
	}
}

// runOptions carries the parsed flags.
type runOptions struct {
	dataset       string
	rows          int
	model         string
	layers        int
	nodes         int
	cores         int
	memGB         float64
	planKind      string
	placement     string
	downstream    string
	seed          int64
	dataDir       string
	saveData      string
	saveModels    string
	cacheDir      string
	cacheMB       int64
	trace         bool
	traceOut      string
	traceFormat   string
	timeseriesOut string
	calibLog      string
}

// exporting reports whether the run writes a sampled recording (the
// time-series file, the trace file's counter tracks): only then does it
// sample. -trace and -calib read the run's span tree.
func (o *runOptions) exporting() bool { return o.traceOut != "" || o.timeseriesOut != "" }

// run executes the workload under ctx (cancellation aborts it cleanly).
// Result rows and summary counters go to stdout; diagnostics — the -trace
// span report and the estimate-vs-measured tables — go to stderr, so piped
// stdout stays machine-readable.
func run(ctx context.Context, o runOptions, stdout, stderr io.Writer) error {
	if o.traceFormat == "" {
		o.traceFormat = "chrome"
	}
	// Render an empty span so an unknown format fails before the run, not
	// after it.
	if err := export.WriteTrace(io.Discard, o.traceFormat, obs.StartSpan(""), nil); err != nil {
		return err
	}
	// The CLI runs through the same lifecycle a served run does, minus the
	// process-wide coordinators: no sharing, no admission, and a recorder
	// only when -calib names a log — the same samples a vista-server with
	// -calib-log would record for this workload, so CLI and served runs can
	// share one log.
	runner := &lifecycle.Runner{}
	if o.calibLog != "" {
		rec, err := calib.Open(calib.Config{Path: o.calibLog})
		if err != nil {
			// Calibration is observability: report it, don't fail the run.
			fmt.Fprintf(stderr, "calibration skipped: %v\n", err)
		} else {
			defer rec.Close()
			runner.Calib = rec
		}
	}

	runSpec, err := withDataset(core.Spec{
		Nodes:        o.nodes,
		CoresPerNode: o.cores,
		MemPerNode:   memory.GB(o.memGB),
		SystemKind:   memory.SparkLike,
		ModelName:    o.model,
		NumLayers:    o.layers,
		Downstream:   core.DefaultDownstream(),
		Seed:         o.seed,
	}, o, stdout)
	if err != nil {
		return err
	}
	if o.cacheDir != "" {
		store, err := featurestore.Open(o.cacheDir, o.cacheMB<<20)
		if err != nil {
			return fmt.Errorf("open feature cache: %w", err)
		}
		defer store.Close()
		runSpec.FeatureStore = store
	}
	if o.exporting() {
		runSpec.SampleEvery = sampler.DefaultEvery
	}
	if runSpec.PlanKind, err = plan.ParseKind(strings.ToLower(o.planKind)); err != nil {
		return fmt.Errorf("unknown plan %q", o.planKind)
	}
	switch strings.ToLower(o.placement) {
	case "aj":
		runSpec.Placement = plan.AfterJoin
	case "bj":
		runSpec.Placement = plan.BeforeJoin
	default:
		return fmt.Errorf("unknown placement %q", o.placement)
	}
	switch strings.ToLower(o.downstream) {
	case "logreg":
		runSpec.Downstream.Kind = core.LogisticRegression
	case "tree":
		runSpec.Downstream.Kind = core.DecisionTree
	case "mlp":
		runSpec.Downstream.Kind = core.MLP
	default:
		return fmt.Errorf("unknown downstream model %q", o.downstream)
	}

	fmt.Fprintf(stdout, "Running %s/%s over %s with %s downstream...\n",
		runSpec.PlanKind, runSpec.Placement, o.model, runSpec.Downstream.Kind)
	out := runner.Do(ctx, runSpec, o.dataset)
	switch out.Kind {
	case lifecycle.Completed:
	case lifecycle.Crashed:
		return fmt.Errorf("workload crashed (Section 4.1 scenario): %w", out.Err)
	default:
		return out.Err
	}
	res := out.Result

	d := res.Decision
	fmt.Fprintf(stdout, "\nOptimizer decision: cpu=%d np=%d join=%v pers=%v storage=%s user=%s dl=%s\n",
		d.CPU, d.NP, d.Join, d.Pers,
		memory.FormatBytes(d.MemStorage), memory.FormatBytes(d.MemUser), memory.FormatBytes(d.MemDL))
	fmt.Fprintf(stdout, "\n%-10s %10s %10s %10s\n", "layer", "dims", "train F1", "test F1")
	for _, lr := range res.Layers {
		fmt.Fprintf(stdout, "%-10s %10d %9.1f%% %9.1f%%\n",
			lr.LayerName, lr.FeatureDim, lr.Train.F1*100, lr.Test.F1*100)
	}
	fmt.Fprintf(stdout, "\nStage breakdown:\n")
	for _, sp := range res.Trace.Children() {
		fmt.Fprintf(stdout, "  %-16s %v\n", sp.Name(), sp.Duration().Round(1e6))
	}
	c := res.Counters
	fmt.Fprintf(stdout, "\nElapsed %v | tasks %d | rows %d | FLOPs %.2fG | shuffled %s | spilled %s | peak storage %s\n",
		res.Elapsed.Round(1e6), c.TasksRun, c.RowsProcessed, float64(c.FLOPs)/1e9,
		memory.FormatBytes(c.BytesShuffled), memory.FormatBytes(c.BytesSpilled),
		memory.FormatBytes(c.PeakStorageBytes))
	if res.Cache.Enabled {
		st := runSpec.FeatureStore.Snapshot()
		fmt.Fprintf(stdout, "Feature cache: %d/%d stages from cache | loaded %d, stored %d entries | store %s in %d entries (hits %d, misses %d, evictions %d)\n",
			res.Cache.StagesFromCache, res.Cache.StagesFromCache+res.Cache.StagesExecuted,
			res.Cache.EntriesLoaded, res.Cache.EntriesStored,
			memory.FormatBytes(st.UsedBytes), st.Entries, st.Hits, st.Misses, st.Evictions)
	}
	if o.trace {
		fmt.Fprintf(stderr, "\nStage trace: (GEMM kernel %s)\n", tensor.KernelName())
		res.Trace.Render(stderr)
		printSimComparison(stderr, o, runSpec, res)
	}
	if o.traceOut != "" {
		if err := writeTraceFile(o.traceOut, o.traceFormat, res); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s trace to %s\n", o.traceFormat, o.traceOut)
	}
	if o.timeseriesOut != "" {
		if err := writeTimeseriesFile(o.timeseriesOut, res); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote sampled time series to %s\n", o.timeseriesOut)
	}
	if runner.Calib != nil {
		if cerr := errors.Join(out.CompareErr, out.RecordErr); cerr != nil {
			fmt.Fprintf(stderr, "calibration skipped: %v\n", cerr)
		} else {
			fmt.Fprintf(stderr, "appended calibration record to %s\n", o.calibLog)
		}
	}

	if o.saveModels != "" {
		if err := os.MkdirAll(o.saveModels, 0o755); err != nil {
			return err
		}
		for _, lr := range res.Layers {
			path := filepath.Join(o.saveModels, lr.LayerName+".json")
			if err := ml.SaveModel(path, lr.Model); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "Saved %d model artifacts to %s\n", len(res.Layers), o.saveModels)
	}
	return nil
}

// printSimComparison lines the run's measured span tree up against the
// simulator's analytical estimate for the same workload shape. The simulator
// prices the paper's cluster hardware, so absolute times differ by orders of
// magnitude; the per-stage *shares* are the comparable signal. Skipped with a
// note when the optimizer finds the simulated workload infeasible (tiny
// in-process runs can describe workloads the paper cluster model rejects).
func printSimComparison(w io.Writer, o runOptions, runSpec core.Spec, res *core.Result) {
	simRes, err := calib.Simulate(calib.EnvFromSpec(runSpec, o.dataset), runSpec.NumLayers)
	if err != nil {
		fmt.Fprintf(w, "\nSimulator comparison skipped: %v\n", err)
		return
	}
	fmt.Fprintf(w, "\nEstimate vs measured (simulator prices the paper cluster; compare shares, not absolutes):\n")
	sim.RenderComparison(w, sim.CompareTrace(simRes, res.Trace))
	fmt.Fprintf(w, "\nMemory-model validation (the engine's peak storage and spill vs Section 4.1 estimates):\n")
	sim.RenderStorageReport(w, sim.CompareStorage(simRes, res.Trace))
}

// writeTraceFile exports the run's span tree (plus sampled counter tracks for
// the chrome format) to path.
func writeTraceFile(path, format string, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := export.WriteTrace(f, format, res.Trace, res.Series); err != nil {
		return err
	}
	return f.Close()
}

// writeTimeseriesFile exports the sampled recording: CSV when path ends in
// .csv, JSON otherwise.
func writeTimeseriesFile(path string, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		err = export.WriteTimeseriesCSV(f, res.Series)
	} else {
		err = export.WriteTimeseriesJSON(f, res.Series)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// withDataset returns spec over the dataset o names: loaded from disk, or
// obtained through a catalog from the synthetic generator (optionally
// persisting the fresh one).
func withDataset(spec core.Spec, o runOptions, stdout io.Writer) (core.Spec, error) {
	if o.dataDir != "" {
		fmt.Fprintf(stdout, "Loading dataset from %s...\n", o.dataDir)
		var err error
		spec.StructRows, spec.ImageRows, err = data.Load(o.dataDir)
		return spec, err
	}
	preset, ok := data.Preset(o.dataset)
	if !ok {
		return spec, fmt.Errorf("unknown dataset %q", o.dataset)
	}
	preset = preset.WithRows(o.rows)
	fmt.Fprintf(stdout, "Generating %s: %d rows × %d structured features + %dx%d images...\n",
		preset.Name, preset.Rows, preset.StructDim, preset.ImageSize, preset.ImageSize)
	tables, err := data.NewCatalog().Get(preset)
	if err != nil {
		return spec, err
	}
	if o.saveData != "" {
		if err := data.Save(o.saveData, tables.StructRows, tables.ImageRows); err != nil {
			return spec, err
		}
		fmt.Fprintf(stdout, "Saved dataset to %s\n", o.saveData)
	}
	return spec.WithTables(tables), nil
}
