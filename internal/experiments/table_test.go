package experiments

import (
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

// text renders tables the way vista-bench prints them.
func text(t *testing.T, tables []Table) string {
	t.Helper()
	var b strings.Builder
	if err := WriteText(&b, tables); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}

// records writes tables through WriteCSV and parses the result back.
func records(t *testing.T, tables []Table) [][]string {
	t.Helper()
	var b strings.Builder
	if err := WriteCSV(&b, tables); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, b.String())
	}
	return recs
}

// TestCSVExports round-trips cells that need quoting — a crash marker, a
// comma, a quote — through WriteCSV and encoding/csv, and checks the tidy
// layout: a caption writes nothing, a captioned table is named by its first
// header cell, a titled one by its title.
func TestCSVExports(t *testing.T) {
	tables := []Table{
		{Title: "Figure X: a caption"},
		{Header: []string{"spark/foods", "Lazy-5", "Vista"},
			Rows: [][]string{{"vgg16", "×(dl-execution-blowup)", "6.6"}}},
		{Title: `Panel "B", with a comma`, Header: []string{"x", "a,b"},
			Rows: [][]string{{"1L", `say "hi"`}}},
	}
	want := [][]string{
		{"table", "row", "column", "value"},
		{"spark/foods", "vgg16", "Lazy-5", "×(dl-execution-blowup)"},
		{"spark/foods", "vgg16", "Vista", "6.6"},
		{`Panel "B", with a comma`, "1L", "a,b", `say "hi"`},
	}
	if got := records(t, tables); !reflect.DeepEqual(got, want) {
		t.Errorf("records = %q\nwant %q", got, want)
	}
}

// TestRenderSmoke pins WriteText's layout: a title and a blank line, the
// header, a dashed rule as wide as each column, left-aligned padded cells,
// and a blank line after every table.
func TestRenderSmoke(t *testing.T) {
	got := text(t, []Table{
		{Title: "Figure X: a caption"},
		{Header: []string{"model", "F1"}, Rows: [][]string{{"alexnet", "1.5"}, {"vgg16", "12.25"}}},
		{Title: "a closing note"},
	})
	want := "Figure X: a caption\n\n" +
		"model    F1   \n" +
		"-------  -----\n" +
		"alexnet  1.5  \n" +
		"vgg16    12.25\n" +
		"\n" +
		"a closing note\n\n"
	if got != want {
		t.Errorf("WriteText =\n%q\nwant\n%q", got, want)
	}
}

// The real-engine exhibits below are not locked by vista-bench's results
// test, so their cells are checked here on synthetic results.

func TestFigure8CSV(t *testing.T) {
	res := &Figure8Result{Rows: 100, Panels: []Figure8Panel{{
		Dataset: "foods", Model: "tiny-alexnet",
		Entries: []Figure8Entry{{FeatureSet: "struct", F1: 0.7}, {FeatureSet: "struct+fc6", F1: 0.8}},
	}}}
	want := [][]string{
		{"table", "row", "column", "value"},
		{"foods/tiny-alexnet", "struct", "F1 (%)", "70.0"},
		{"foods/tiny-alexnet", "struct+fc6", "F1 (%)", "80.0"},
	}
	if got := records(t, res.Tables()); !reflect.DeepEqual(got, want) {
		t.Errorf("records = %q\nwant %q", got, want)
	}
}

func TestFigure15CSVShape(t *testing.T) {
	res := &Figure15Result{Rows: []Figure15Row{{
		Model: "tiny-alexnet", Rows: 100,
		EstimateBytes: 3 << 20, ActualDeserBytes: 2 << 20, ActualSerBytes: 1 << 20,
	}}}
	recs := records(t, res.Tables())
	if len(recs) != 1+4 {
		t.Fatalf("got %d records, want a header and 4 cells: %q", len(recs), recs)
	}
	if got := recs[2]; got[1] != "tiny-alexnet" || got[2] != "estimate" || got[3] != "3.0 MB" {
		t.Errorf("estimate record = %q", got)
	}
}
