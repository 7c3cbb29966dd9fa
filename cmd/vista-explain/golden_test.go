package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current output")

// TestMain runs the command itself, not the tests, when TestGolden re-executes
// this binary with mainEnv set: the golden then pins exactly what a user sees,
// flag parsing included.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const mainEnv = "VISTA_EXPLAIN_RUN_MAIN"

// goldenArgs are the invocations whose stdout testdata/golden.txt holds.
var goldenArgs = [][]string{
	{"-model", "alexnet", "-dataset", "foods"},
	{"-model", "alexnet", "-dataset", "amazon"},
	{"-model", "vgg16", "-dataset", "foods"},
	{"-model", "vgg16", "-dataset", "amazon"},
	{"-model", "resnet50", "-dataset", "foods"},
	{"-model", "resnet50", "-dataset", "amazon"},
	{"-ignite"},
	{"-gpu", "12", "-nodes", "1"},
	{"-model", "vgg16", "-dataset", "foods", "-sweep-mem"},
}

// TestGolden holds vista-explain's stdout byte for byte over the default
// 32 GB cluster, the Ignite-like system, the GPU workstation and a memory
// sweep. Regenerate with go test ./cmd/vista-explain -run TestGolden -update.
func TestGolden(t *testing.T) {
	var got bytes.Buffer
	for _, args := range goldenArgs {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), mainEnv+"=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("vista-explain %s: %v", strings.Join(args, " "), err)
		}
		fmt.Fprintf(&got, "$ vista-explain %s\n%s\n", strings.Join(args, " "), out)
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			at := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return "<end>"
			}
			t.Fatalf("output differs from %s at line %d:\n got %q\nwant %q", path, i+1, at(gl), at(wl))
		}
	}
}
