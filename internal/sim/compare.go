package sim

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/obs"
)

// This file lines the simulator's analytical estimates up against a real
// run's measured span tree (core.Result.Trace): one row per top-level stage
// span, each paired with the simulator cost component that models it. The
// absolute scale differs wildly by design — the simulator prices the paper's
// cluster while the engine runs a scaled-down in-process replica — so the
// interesting signal is the *shape*: which stages dominate, and whether the
// measured proportions track the estimated ones.

// StageComparison pairs one measured stage with its simulated estimate.
type StageComparison struct {
	// Stage is the span label ("ingest", "join", "infer:fc6", ...).
	Stage string
	// Estimated is the simulator's cost for the matching component; zero
	// when the simulator has no model for the stage (e.g. "cache:" attaches,
	// which the cold-run simulator never prices).
	Estimated time.Duration
	// Measured is the span's wall-clock duration.
	Measured time.Duration
	// Cached marks a stage served from the feature store: its measured time
	// is a table attach, not CNN inference, so lining it up against a
	// cold-run estimate would report meaningless relative error. The render
	// labels such rows instead of comparing them.
	Cached bool
	// Shared marks a stage attached from a sharing group's in-memory handoff
	// (a follower riding its leader's pass); like Cached, the measured time
	// is an attach, not inference, and the render labels it instead of
	// comparing.
	Shared bool
	// Unmodeled marks a span label the simulator has no cost component for
	// at all (a stage name this comparison predates). Its zero estimate
	// would otherwise read as infinite drift, so the render labels it.
	// Cached/shared attaches are NOT unmodeled: the simulator knows those
	// stages, it deliberately prices them at zero for a cold run.
	Unmodeled bool
}

// Share returns d's fraction of total, in [0, 1] (0 when total is 0).
func share(d time.Duration, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(d) / float64(total)
}

// CompareTrace matches a simulated run against a measured span tree. Every
// top-level child of trace becomes one comparison row, in execution order:
//
//	ingest            → ReadSec
//	join              → JoinSec (the AJ placement's up-front join)
//	infer:<l>         → the layer's InferSec
//	train:<l>         → the layer's TrainFirstSec + TrainRestSec + JoinSec
//	cache:<l>         → 0 (feature-store attach; the simulator runs cold)
//	shared:<l>        → 0 (share-handoff attach; the leader ran the pass)
//	anything else     → 0, flagged Unmodeled (no cost component exists)
//
// A crashed simulation (r.Crash != nil) yields all-zero estimates.
func CompareTrace(r Result, trace *obs.Span) []StageComparison {
	byLayer := make(map[string]LayerCost, len(r.Layers))
	for _, lc := range r.Layers {
		byLayer[lc.Layer] = lc
	}
	// estimate prices a label; modeled reports whether the simulator has a
	// cost component for it at all (cache/shared attaches are modeled — at
	// zero, deliberately — while an unknown name is not).
	estimate := func(label string) (sec float64, modeled bool) {
		name, layer, _ := strings.Cut(label, ":")
		lc := byLayer[layer]
		switch name {
		case "ingest":
			sec, modeled = r.ReadSec, true
		case "join":
			sec, modeled = r.JoinSec, true
		case "infer":
			sec, modeled = lc.InferSec, true
		case "train":
			sec, modeled = lc.TrainFirstSec+lc.TrainRestSec+lc.JoinSec, true
		case "cache", "shared":
			sec, modeled = 0, true
		}
		if r.Crash != nil {
			sec = 0
		}
		return sec, modeled
	}
	children := trace.Children()
	out := make([]StageComparison, len(children))
	for i, sp := range children {
		sec, modeled := estimate(sp.Name())
		out[i] = StageComparison{
			Stage:     sp.Name(),
			Estimated: time.Duration(sec * float64(time.Second)),
			Measured:  sp.Duration(),
			Cached:    strings.HasPrefix(sp.Name(), "cache:"),
			Shared:    strings.HasPrefix(sp.Name(), "shared:"),
			Unmodeled: !modeled,
		}
	}
	return out
}

// RenderComparison writes the comparison as an aligned table: absolute
// estimated/measured times plus each stage's share of its run, which is the
// scale-free column worth reading.
func RenderComparison(w io.Writer, comps []StageComparison) {
	var estTotal, measTotal time.Duration
	width := len("stage")
	for _, c := range comps {
		estTotal += c.Estimated
		measTotal += c.Measured
		if len(c.Stage) > width {
			width = len(c.Stage)
		}
	}
	fmt.Fprintf(w, "%-*s  %12s %7s  %12s %7s\n", width, "stage",
		"est", "est%", "measured", "meas%")
	for _, c := range comps {
		note := ""
		if c.Cached {
			note = "  (cached: feature-store attach, not modeled)"
		}
		if c.Shared {
			note = "  (shared: leader's pass attached, not modeled)"
		}
		if c.Unmodeled {
			note = "  (unmodeled: the simulator has no cost component for this stage)"
		}
		fmt.Fprintf(w, "%-*s  %12s %6.1f%%  %12s %6.1f%%%s\n", width, c.Stage,
			formatSec(c.Estimated), 100*share(c.Estimated, estTotal),
			formatSec(c.Measured), 100*share(c.Measured, measTotal), note)
	}
	fmt.Fprintf(w, "%-*s  %12s %7s  %12s %7s\n", width, "total",
		formatSec(estTotal), "", formatSec(measTotal), "")
}

// formatSec renders a duration in seconds with a sensible precision.
func formatSec(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s == 0:
		return "-"
	case math.Abs(s) >= 100:
		return fmt.Sprintf("%.0fs", s)
	case math.Abs(s) >= 1:
		return fmt.Sprintf("%.1fs", s)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
