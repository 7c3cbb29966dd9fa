// Package core implements Vista itself: the declarative feature-transfer API
// of Section 3.3. A Spec says *what* to run — the system environment, the
// roster CNN f and the number of feature layers |L| to explore, the
// downstream ML routine M, and the data tables with their statistics — and
// Run decides *how*: it invokes the optimizer (Section 4.3) for the logical
// plan's configuration, provisions the dataflow engine and DL session,
// executes the Staged plan (or an explicitly requested alternative, for
// experiments), and trains M on every selected layer.
package core

import (
	"fmt"
	"time"

	"repro/internal/cnn"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/obs/sampler"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sim"
)

// DownstreamKind selects the downstream model M.
type DownstreamKind int

// Downstream model kinds.
const (
	// LogisticRegression is the paper's primary M (MLlib-style,
	// distributed full-batch gradient descent).
	LogisticRegression DownstreamKind = iota
	// DecisionTree is the CART alternative of Section 5.2.
	DecisionTree
	// MLP is the neural downstream model of the TFT+Beam comparison.
	MLP
)

// String implements fmt.Stringer.
func (k DownstreamKind) String() string {
	switch k {
	case LogisticRegression:
		return "logistic-regression"
	case DecisionTree:
		return "decision-tree"
	case MLP:
		return "mlp"
	}
	return fmt.Sprintf("downstream(%d)", int(k))
}

// DownstreamSpec configures M.
type DownstreamSpec struct {
	Kind   DownstreamKind
	LogReg ml.LogRegConfig
	Tree   ml.TreeConfig
	MLP    ml.MLPConfig
	// TestFraction, when positive, holds out that fraction of rows (by ID
	// hash) for evaluation; metrics are reported on both splits.
	TestFraction float64
}

// Footprint is d's memory footprint as Algorithm 1 budgets it. A decision
// tree is budgeted as logistic regression.
func (d DownstreamSpec) Footprint() sim.Downstream {
	return sim.Downstream{MLP: d.Kind == MLP, Hidden: d.MLP.Hidden}
}

// DefaultDownstream returns the paper's Section 5 settings: logistic
// regression, 10 iterations, elastic net α = 0.5, λ = 0.01, 20% test split.
func DefaultDownstream() DownstreamSpec {
	return DownstreamSpec{
		Kind:         LogisticRegression,
		LogReg:       ml.DefaultLogRegConfig(),
		Tree:         ml.DefaultTreeConfig(),
		MLP:          ml.DefaultMLPConfig(),
		TestFraction: 0.2,
	}
}

// Spec is Vista's declarative input (Figure 13 / Section 3.3's four input
// groups).
type Spec struct {
	// — Group 1: system environment —
	Nodes        int
	CoresPerNode int
	MemPerNode   int64
	// SystemKind selects Spark-like or Ignite-like PD semantics.
	SystemKind memory.SystemKind

	// — Group 2: CNN and layers —
	// ModelName is a roster name; real execution requires an executable
	// (Tiny*) model.
	ModelName string
	// NumLayers is |L|, counted from the top-most feature layer.
	NumLayers int

	// — Group 3: downstream ML routine —
	Downstream DownstreamSpec

	// — Group 4: data and statistics —
	StructRows []dataflow.Row
	ImageRows  []dataflow.Row

	// tables is the catalog entry StructRows and ImageRows came from
	// (WithTables), or nil for rows the caller built itself. It lets runs over
	// one entry share its image checksum instead of each re-hashing the rows.
	// Read it through catalogTables, which drops a handle the rows no longer
	// match.
	tables *data.Tables

	// Seed drives CNN weight realization.
	Seed int64

	// Identity, when non-nil, is this spec's request-invariant state as
	// Resolve derived it. A caller that takes one spec through
	// ShareFingerprint, Price and RunContext (internal/lifecycle) sets it so
	// the model, stats, plan, weights and checksums are derived once; left
	// nil, each of those resolves its own. Changing a field the identity was
	// derived from after setting it is an error every one of them reports.
	Identity *Identity

	// FeatureStore, when non-nil, enables cross-run feature reuse: Run
	// consults the store before scheduling partial-inference stages (a fully
	// covered stage is attached from cache instead of computed) and
	// publishes features it does compute back under the run's content
	// address (model, weight checksum, image-content checksum, layer).
	FeatureStore *featurestore.Store

	// FeatureSource, when non-nil, is probed before the durable FeatureStore
	// for each plan step's outputs — the in-memory fast path of multi-query
	// shared inference (internal/share): a sharing follower carries its
	// group's handoff here and attaches the leader's feature tables without
	// opening a DL session. Stages served from the source are labeled
	// "shared:<layer>" in the trace and counted in CacheReport.StagesShared.
	FeatureSource FeatureSource

	// FeatureSink, when non-nil, receives every materialized table a live
	// inference step produces (same content addresses the FeatureStore would
	// use). A sharing leader carries its group's handoff here so followers
	// attach directly from memory; the durable store, when also configured,
	// is written independently.
	FeatureSink FeatureSink

	// Metrics, when non-nil, receives the run's live instrumentation: the
	// engine registers its counters and per-node pool gauges into this
	// registry, so an HTTP scrape observes the run in flight. A long-lived
	// registry may be reused across runs; each run's engine takes over the
	// engine series. The feature store outlives runs, so its owner registers
	// its series once, at setup.
	Metrics *obs.Registry

	// SampleEvery, when positive, runs a time-series sampler for the
	// duration of the run: every period it snapshots this run's
	// engine/pool/feature-store series — never another run's — into an
	// in-memory recording, tagging each frame with the stage open at that
	// instant. The recording lands on Result.Series for the export writers
	// (CSV/JSON time series, Chrome trace counter tracks) only: calibration
	// reads the run's storage counters from Result.Trace, sampled or not.
	SampleEvery time.Duration

	// — Experiment overrides (default zero values = Vista's choices) —
	// PlanKind/Placement force a logical plan; Vista's default is
	// Staged/AJ (Section 4.2.1: "it suffices for Vista to only use our new
	// Staged plan"; Section 5.3 validates Staged/AJ).
	PlanKind  plan.Kind
	Placement plan.JoinPlacement
	// Decision, when non-nil, bypasses the optimizer (baseline configs).
	Decision *optimizer.Decision
	// Params, when non-nil, overrides the Table 1(C) fixed-but-adjustable
	// system parameters (OS reservation, Core Memory, partition caps, α).
	Params *optimizer.Params
	// SpillDir overrides the engine's spill directory (tests).
	SpillDir string
}

// FeatureSource serves materialized feature tables by content address — the
// read side of an in-memory handoff between runs sharing one inference pass
// (implemented by share.Handoff). Lookup must return rows the caller may own
// outright (deep copies), since each run's engine mutates its tables.
type FeatureSource interface {
	Lookup(k featurestore.Key) (rows []dataflow.Row, ok bool)
}

// FeatureSink receives materialized feature tables by content address — the
// write side of the handoff (implemented by share.Handoff). Publish takes
// ownership of rows; the executor never mutates them afterwards.
type FeatureSink interface {
	Publish(k featurestore.Key, rows []dataflow.Row)
}

// params returns the effective Table 1(C) parameters.
func (s *Spec) params() optimizer.Params {
	if s.Params != nil {
		return *s.Params
	}
	return optimizer.DefaultParams()
}

// WithTables returns s reading a catalog entry's rows, remembering the entry
// so the run uses its once-computed image checksum.
func (s Spec) WithTables(t *data.Tables) Spec {
	s.StructRows, s.ImageRows = t.StructRows, t.ImageRows
	s.tables = t
	return s
}

// catalogTables returns the catalog entry s reads, or nil when s has none or
// its ImageRows were replaced since WithTables (a copied spec given other
// rows must not inherit the entry's checksum: it is half of every content
// address the run reads and writes).
func (s *Spec) catalogTables() *data.Tables {
	if s.tables == nil || !sameRows(s.ImageRows, s.tables.ImageRows) {
		return nil
	}
	return s.tables
}

// sameRows reports whether a and b are the same slice (not merely equal
// content): same backing array, same length.
func sameRows(a, b []dataflow.Row) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// AvgImageBytes is the image table's sampled average row payload — the
// image-row size the optimizer prices, and the one a calibration comparison
// must simulate against.
func (s *Spec) AvgImageBytes() int64 {
	return dataflow.AvgRowBytes(s.ImageRows)
}

// Validate checks the spec before execution.
func (s *Spec) Validate() error {
	switch {
	case s.Nodes <= 0 || s.CoresPerNode <= 0:
		return fmt.Errorf("core: need positive nodes/cores, got %d/%d", s.Nodes, s.CoresPerNode)
	case s.MemPerNode <= 0:
		return fmt.Errorf("core: need positive worker memory")
	case s.NumLayers <= 0:
		return fmt.Errorf("core: need at least one feature layer")
	case len(s.StructRows) == 0 || len(s.ImageRows) == 0:
		return fmt.Errorf("core: both Tstr and Timg must be non-empty")
	case len(s.StructRows) != len(s.ImageRows):
		return fmt.Errorf("core: Tstr has %d rows, Timg has %d", len(s.StructRows), len(s.ImageRows))
	}
	if _, err := cnn.ByName(s.ModelName); err != nil {
		return err
	}
	return nil
}

// LayerResult is one trained downstream model with its evaluation.
type LayerResult struct {
	// LayerName is the feature layer's roster label.
	LayerName string
	// FeatureDim is the flattened feature-vector length.
	FeatureDim int
	// Model is the trained downstream model.
	Model ml.Model
	// Train and Test are metrics on the respective splits (Test.N == 0
	// when TestFraction is 0).
	Train, Test ml.Metrics
}

// CacheReport summarizes a run's interaction with the feature store.
type CacheReport struct {
	// Enabled is true when the spec carried a feature store and/or a share
	// handoff (FeatureSource/FeatureSink), i.e. cross-run reuse was possible.
	Enabled bool `json:"enabled"`
	// StagesFromCache and StagesExecuted split the plan's inference stages
	// into those attached from materialized features and those run live.
	StagesFromCache int `json:"stages_from_cache"`
	StagesExecuted  int `json:"stages_executed"`
	// StagesShared counts stages attached from an in-memory FeatureSource (a
	// sharing group's handoff) rather than the durable store; such stages are
	// not included in StagesFromCache.
	StagesShared int `json:"stages_shared"`
	// EntriesLoaded and EntriesStored count store entries read and written.
	EntriesLoaded int `json:"entries_loaded"`
	EntriesStored int `json:"entries_stored"`
	// WeightsSum and DataSum are the run's content-address components,
	// reusable to probe the store for this workload (e.g. by the server's
	// /simulate path).
	WeightsSum string `json:"weights_sum,omitempty"`
	DataSum    string `json:"data_sum,omitempty"`
}

// Result is the output of one feature-transfer run: |L| trained models, the
// configuration Vista chose, and the run's instrumentation.
type Result struct {
	Decision optimizer.Decision
	Plan     *plan.Plan
	Layers   []LayerResult
	Counters dataflow.Snapshot
	Elapsed  time.Duration
	// Trace is the run's span tree: a root "run" span with one child per
	// stage, in execution order, each carrying row/byte/FLOP attributes.
	// The root carries the engine's final peak storage and spill bytes
	// (sim.AttrPeakStorageBytes, sim.AttrSpilledBytes), which
	// sim.CompareStorage reads.
	// Stage labels: "ingest", "join", "infer:<layer>", "train:<layer>",
	// "cache:<layer>" (a stage served from the feature store), or "shared:<layer>" (a stage attached from a sharing group's
	// in-memory handoff). Render it for the
	// -trace report, or feed it to sim.CompareTrace to line measured stage
	// times up against the simulator's estimates.
	Trace *obs.Span
	// Series is the run's sampled time series (nil unless Spec.SampleEvery
	// was set): per-period frames of engine counters, pool gauges, and
	// feature-store series with live stage markers. Feed it to
	// export.WriteTimeseriesCSV/JSON or export.WriteChromeTrace (counter
	// tracks).
	Series *sampler.Recording
	// Cache reports feature-store usage (zero value when no store).
	Cache CacheReport
}
