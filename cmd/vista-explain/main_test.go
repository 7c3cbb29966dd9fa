package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestExplainAllModels(t *testing.T) {
	for _, model := range []string{"alexnet", "vgg16", "resnet50"} {
		for _, dataset := range []string{"foods", "amazon"} {
			if err := run(model, dataset, 0, 8, 8, 32, 0, false); err != nil {
				t.Errorf("%s/%s: %v", model, dataset, err)
			}
		}
	}
}

func TestExplainIgniteAndGPU(t *testing.T) {
	if err := run("resnet50", "foods", 5, 8, 8, 32, 0, true); err != nil {
		t.Errorf("ignite: %v", err)
	}
	if err := run("resnet50", "foods", 5, 1, 8, 32, 12, false); err != nil {
		t.Errorf("gpu: %v", err)
	}
}

func TestMemorySweep(t *testing.T) {
	if err := sweepMemory("vgg16", "foods", 3, 8, 8, 0, false); err != nil {
		t.Fatalf("sweepMemory: %v", err)
	}
	// An infeasible point renders as "no" without error.
	line, err := sweepPoint("vgg16", "foods", 3, 8, 8, 8, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := "no"; len(line) == 0 || !contains(line, want) {
		t.Errorf("8 GB line = %q, want feasibility %q", line, want)
	}
	// A comfortable point is feasible with a prediction.
	line, err = sweepPoint("vgg16", "foods", 3, 8, 8, 48, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(line, "yes") || !contains(line, "min") {
		t.Errorf("48 GB line = %q, want feasible with predicted minutes", line)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

func TestExplainValidation(t *testing.T) {
	if err := run("resnet50", "nope", 5, 8, 8, 32, 0, false); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run("nope", "foods", 5, 8, 8, 32, 0, false); err == nil {
		t.Error("unknown model accepted")
	}
	// Infeasible: an 8 GB node cannot host VGG16.
	if err := run("vgg16", "foods", 3, 8, 8, 8, 0, false); err == nil {
		t.Error("infeasible environment accepted")
	}
}

// captureStdout returns what f prints to stdout.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	err = f()
	os.Stdout = stdout
	w.Close()
	b := <-out
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExplainSimulatesAskedMemory: the single-point report simulates on the
// worker memory it was asked for, so at 48 GB it agrees with the memory
// sweep's 48 GB point on the decision and the predicted minutes.
func TestExplainSimulatesAskedMemory(t *testing.T) {
	out := captureStdout(t, func() error { return run("vgg16", "amazon", 0, 8, 8, 48, 0, false) })
	line, err := sweepPoint("vgg16", "amazon", 0, 8, 8, 48, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// "48 GB yes cpu np join pers M min"
	f := strings.Fields(line)
	if len(f) != 9 || f[2] != "yes" {
		t.Fatalf("48 GB sweep point = %q, want a feasible prediction", line)
	}
	for _, want := range []string{
		"  cpu         = " + f[3] + "\n",
		"  np          = " + f[4] + "\n",
		"  join        = " + f[5] + "\n",
		"  persistence = " + f[6] + "\n",
		": " + f[7] + " min (",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("single-point report lacks %q the sweep reports:\n%s", want, out)
		}
	}
}
