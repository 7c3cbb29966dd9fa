package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// deterministic names the exhibits whose output depends on neither the GEMM
// kernel body nor the wall clock: the simulator exhibits and the claims
// scorecard. fig8, fig15, sec52, admission and share stay in results.txt as
// an archived run.
var deterministic = []string{"fig6", "fig7a", "fig7b", "fig9", "fig10", "fig11", "fig12",
	"fig16", "table2", "table3", "fig17", "verify"}

// blocks splits vista-bench output into each "==== name ====" header's text,
// up to the next header.
func blocks(out string) map[string]string {
	m := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if n, ok := strings.CutPrefix(line, "==== "); ok && strings.HasSuffix(n, " ====\n") {
			name = strings.TrimSuffix(n, " ====\n")
			continue
		}
		if name != "" {
			m[name] += line
		}
	}
	return m
}

// TestRunExhibitsAllSimulatorOnes re-renders every deterministic exhibit and
// compares each block byte for byte with its block in the committed
// results.txt, so no exhibit's numbers or layout can change without the file
// being regenerated (go run ./cmd/vista-bench > results.txt).
func TestRunExhibitsAllSimulatorOnes(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := runExhibits(&b, io.Discard, strings.Join(deterministic, ","), experiments.Options{}, ""); err != nil {
		t.Fatalf("runExhibits: %v", err)
	}
	want, got := blocks(string(committed)), blocks(b.String())
	for _, name := range deterministic {
		w, ok := want[name]
		if !ok {
			t.Errorf("results.txt has no %s block", name)
			continue
		}
		if g := got[name]; g != w {
			gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
			i := 0
			for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
				i++
			}
			at := func(lines []string) string {
				if i < len(lines) {
					return lines[i]
				}
				return "(end of block)"
			}
			t.Errorf("%s differs from results.txt at block line %d:\n got %q\nwant %q", name, i+1, at(gl), at(wl))
		}
	}
}

func TestRunExhibitsSelection(t *testing.T) {
	var out, log strings.Builder
	if err := runExhibits(&out, &log, "fig6,table3", experiments.Options{}, ""); err != nil {
		t.Fatalf("runExhibits: %v", err)
	}
	for _, want := range []string{"==== fig6 ====", "==== table3 ====", "Figure 6", "Table 3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out.String(), "==== fig9") {
		t.Error("unselected exhibit ran")
	}
	if !strings.HasPrefix(log.String(), "fig6 ") || !strings.Contains(log.String(), "\ntable3 ") {
		t.Errorf("wall times missing from the log: %q", log.String())
	}
}

func TestRunExhibitsCSVOutput(t *testing.T) {
	dir := t.TempDir()
	if err := runExhibits(io.Discard, io.Discard, "fig6,fig9", experiments.Options{}, dir); err != nil {
		t.Fatalf("runExhibits: %v", err)
	}
	for _, name := range []string{"fig6.csv", "fig9.csv"} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(string(blob), "table,row,column,value\n") || strings.Count(string(blob), "\n") < 2 {
			t.Errorf("%s is not a tidy CSV:\n%s", name, blob)
		}
	}
}

func TestRunExhibitsUnknownName(t *testing.T) {
	var out, log strings.Builder
	if err := runExhibits(&out, &log, "nonexistent", experiments.Options{}, ""); err != nil {
		t.Fatalf("unknown selection should be a no-op, got %v", err)
	}
	if out.Len() != 0 || log.Len() != 0 {
		t.Error("unknown selection produced output")
	}
}
