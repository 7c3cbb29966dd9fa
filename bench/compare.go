package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one end-to-end metric of one workload over a report's
// measured runs.
func (r *Report) values(workload, metric string) []float64 {
	var vs []float64
	for _, run := range r.Runs {
		if m, ok := run.EndToEnd[metric]; ok && run.Workload == workload && !run.Traced {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// Verdict is the outcome of comparing one metric on one workload.
type Verdict string

const (
	ok         Verdict = "ok"
	regressed  Verdict = "regressed"
	unresolved Verdict = "unresolved"
)

// judge compares the change's values b with the parent's a. worse is how
// far b's median is on the wrong side of a's, as a share of a's. Where
// either side's own run-to-run spread is wider than the bound the runs
// cannot tell a regression from noise, and the metric is unresolved rather
// than unchanged. A side with under four runs has no spread to speak of.
func judge(d MetricDef, a, b []float64) (worse, spreadSeen float64, v Verdict) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	for _, side := range [][]float64{a, b} {
		if len(side) >= 4 {
			spreadSeen = max(spreadSeen, spread(side))
		}
	}
	switch {
	case spreadSeen > d.Bound:
		v = unresolved
	case worse > d.Bound:
		v = regressed
	default:
		v = ok
	}
	return worse, spreadSeen, v
}

// Compare prints, per workload and end-to-end metric, both medians, how
// much worse B is, the spread, the bound and the verdict. It reports whether
// anything regressed, including more failed requests than the parent had.
func Compare(w io.Writer, a, b *Report) (anyRegressed bool) {
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range Workloads {
		for _, d := range EndToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, sp, v := judge(d, va, vb)
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, median(va), median(vb), 100*worse, 100*sp, 100*d.Bound, v)
		}
		fa, fb := a.failShare(wl.Name), b.failShare(wl.Name)
		v := ok
		if fb > fa {
			v, anyRegressed = regressed, true
		}
		fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f %35s\n", wl.Name, "fail_share", fa, fb, v)
	}
	return anyRegressed
}

// failShare is failed over attempted requests across a workload's measured
// runs; expected 0, and any increase is a regression.
func (r *Report) failShare(workload string) float64 {
	var failed, attempted int
	for _, run := range r.Runs {
		if run.Workload == workload && !run.Traced {
			failed, attempted = failed+run.Failed, attempted+run.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
