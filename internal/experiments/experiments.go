// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5 and Appendices A–C). Cluster-scale experiments
// (Figures 6, 7, 9–12, 16–17, Tables 2–3) run on the analytical simulator
// with the paper's cluster profiles; the accuracy experiment (Figure 8) and
// the size-estimation validation (Figure 15) execute for real on the
// dataflow engine with the executable Tiny* CNNs. Each harness returns a
// structured result whose Tables method formats the rows/series the paper
// reports; Exhibits names every harness, and WriteText and WriteCSV render
// any exhibit's tables.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"repro/internal/cnn"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Models are the roster CNNs of the evaluation.
var Models = []string{"alexnet", "vgg16", "resnet50"}

// fmtCell renders a simulated result as minutes, or the paper's "×" for a
// crash.
func fmtCell(r sim.Result) string {
	if r.Crash != nil {
		oom, ok := memory.IsOOM(r.Crash)
		if ok {
			return fmt.Sprintf("×(%s)", oom.Scenario)
		}
		return "×"
	}
	return fmt.Sprintf("%.1f", r.TotalMin())
}

// featureLayers is how many feature layers model has: the largest |L| a
// sweep explores.
func featureLayers(model string) (int, error) {
	m, err := cnn.ByName(model)
	if err != nil {
		return 0, err
	}
	return len(m.FeatureLayers), nil
}

// vistaSpec is the Staged/AJ workload Vista runs over all of model's
// feature layers (the paper's |L|) on nodes workers of the paper cluster.
func vistaSpec(model string, ds sim.DatasetSpec, nodes int) sim.WorkloadSpec {
	return sim.WorkloadSpec{ModelName: model, Dataset: ds,
		PlanKind: plan.Staged, Placement: plan.AfterJoin, Nodes: nodes}
}

// vistaResult is Vista's simulated run of spec, or a crashed result carrying
// why Vista could not plan it.
func vistaResult(spec sim.WorkloadSpec) sim.Result {
	wi, err := sim.Vista(spec)
	if err != nil {
		return sim.Result{Crash: err}
	}
	return wi.Result
}

// vistaAt simulates Vista's workload on nodes workers under its decision
// with mutate applied: a drill-down that pins some of the configuration.
func vistaAt(model string, ds sim.DatasetSpec, nodes int, mutate func(*sim.Config, sim.Workload)) (sim.Result, error) {
	wi, err := sim.Vista(vistaSpec(model, ds, nodes))
	if err != nil {
		return sim.Result{}, err
	}
	cfg := wi.Config
	mutate(&cfg, wi.Workload)
	return sim.Run(wi.Workload, cfg, wi.Profile), nil
}

// Table is one grid of an exhibit, its cells formatted once by the harness
// that produced it. A row's first cell names the row. A table with only a
// Title prints as a line of text: a caption for the untitled tables after it,
// or a closing note.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

func (t *Table) add(cells ...string) { t.Rows = append(t.Rows, cells) }

// name is the table's key in WriteCSV: its title, or its first header cell
// when it has none.
func (t *Table) name() string {
	if t.Title != "" {
		return t.Title
	}
	return t.Header[0]
}

// WriteText renders tables as fixed-width text: each table's title and a
// blank line, then its header, a dashed rule and its rows, then a blank line.
func WriteText(w io.Writer, tables []Table) error {
	var b strings.Builder
	for _, t := range tables {
		if t.Title != "" {
			b.WriteString(t.Title + "\n\n")
		}
		if len(t.Header) == 0 {
			continue
		}
		widths := make([]int, len(t.Header))
		for _, r := range append([][]string{t.Header}, t.Rows...) {
			for i, c := range r {
				widths[i] = max(widths[i], len(c))
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
			b.WriteByte('\n')
		}
		line(t.Header)
		rule := make([]string, len(widths))
		for i, n := range widths {
			rule[i] = strings.Repeat("-", n)
		}
		line(rule)
		for _, r := range t.Rows {
			line(r)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes tables as one tidy long-form RFC 4180 CSV with the header
// table,row,column,value and one record per cell outside a row's first
// column: the table's name, the row's first cell, the cell's column header
// and the cell itself — exactly the cells WriteText prints.
func WriteCSV(w io.Writer, tables []Table) error {
	records := [][]string{{"table", "row", "column", "value"}}
	for _, t := range tables {
		for _, r := range t.Rows {
			for i := 1; i < len(r); i++ {
				records = append(records, []string{t.name(), r[0], t.Header[i], r[i]})
			}
		}
	}
	if err := csv.NewWriter(w).WriteAll(records); err != nil {
		return fmt.Errorf("experiments: csv: %w", err)
	}
	return nil
}
