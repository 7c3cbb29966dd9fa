// Command vista-bench regenerates the paper's evaluation — every figure and
// table of Section 5 and Appendices A–C, plus the admission and sharing
// exhibits and the claims scorecard — as text tables, each
// exhibit under a "==== name ====" header, with each exhibit's wall time on
// stderr. Select exhibits with -only (comma-separated); -csv DIR also writes
// DIR/name.csv per exhibit, one table,row,column,value record per cell.
//
//	vista-bench -only fig6,table3
//	vista-bench > results.txt
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		only     = flag.String("only", "", "comma-separated exhibits to run (default: all): fig6,fig7a,fig7b,fig8,fig9,fig10,fig11,fig12,fig15,fig16,table2,table3,fig17,sec52,admission,share,verify")
		fig8Rows = flag.Int("fig8-rows", 1000, "rows per dataset for the real-engine accuracy experiment")
		fig15Rws = flag.Int("fig15-rows", 300, "rows for the real-engine size-estimation experiment")
		csvDir   = flag.String("csv", "", "also write one plot-ready CSV per exhibit into this directory")
	)
	flag.Parse()

	opts := experiments.Options{Fig8Rows: *fig8Rows, Fig15Rows: *fig15Rws}
	if err := runExhibits(os.Stdout, os.Stderr, *only, opts, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "vista-bench:", err)
		os.Exit(1)
	}
}

// runExhibits runs the selected exhibits (all when only is empty) in order,
// printing each one's tables to w and its wall time to log, and writing
// csvDir/name.csv when csvDir is set. A failed exhibit prints nothing; the
// rest still run, and the first error is returned.
func runExhibits(w, log io.Writer, only string, opts experiments.Options, csvDir string) error {
	selected := map[string]bool{}
	if only != "" {
		for _, n := range strings.Split(only, ",") {
			selected[strings.TrimSpace(strings.ToLower(n))] = true
		}
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	var firstErr error
	for _, e := range experiments.Exhibits {
		if len(selected) > 0 && !selected[e.Name] {
			continue
		}
		start := time.Now()
		tables, err := e.Run(opts)
		if err == nil {
			fmt.Fprintf(log, "%s %v\n", e.Name, time.Since(start).Round(time.Millisecond))
			_, err = fmt.Fprintf(w, "==== %s ====\n\n", e.Name)
		}
		if err == nil {
			err = experiments.WriteText(w, tables)
		}
		if err == nil && csvDir != "" {
			var b bytes.Buffer
			if err = experiments.WriteCSV(&b, tables); err == nil {
				err = os.WriteFile(filepath.Join(csvDir, e.Name+".csv"), b.Bytes(), 0o644)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return firstErr
}
