package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestWriteTimelineFormatFromPath: a .json path gets JSON; any other path,
// and - (stdout), gets CSV.
func TestWriteTimelineFormatFromPath(t *testing.T) {
	res := &workload.Result{Profile: "const(5)", Buckets: []workload.Bucket{{TargetRate: 5, Offered: 5}}}
	const csvHeader, jsonStart = "sim_offset_s,", "{"
	dir := t.TempDir()
	for name, want := range map[string]string{
		"day.json": jsonStart,
		"day.csv":  csvHeader,
		"day":      csvHeader,
		"day.txt":  csvHeader,
	} {
		path := filepath.Join(dir, name)
		var stdout bytes.Buffer
		if err := writeTimeline(res, path, &stdout); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(got), want) {
			t.Errorf("%s starts %.20q, want %q", name, got, want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %d bytes to stdout", name, stdout.Len())
		}
	}
	var stdout bytes.Buffer
	if err := writeTimeline(res, "-", &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), csvHeader) {
		t.Errorf("stdout timeline starts %.20q, want CSV", stdout.String())
	}
}
