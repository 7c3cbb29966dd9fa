// Command bench is the repository's benchmark: it builds cmd/vista-server,
// boots it per workload, replays a seed-generated request sequence against
// POST /run with closed-loop clients, checks every response and reports
// end-to-end metrics; with -trace 1 it instead replays the first requests
// in process under bench-owned spans and reports per-layer metrics. See
// README.md.
//
//	bash bench/run.sh --workload warm-repeat --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1 -reps 10 -out bench/results/a.json
//	bash bench/run.sh -compare bench/results/a.json bench/results/b.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// RunSeconds is BENCHMARK.json's run_seconds: how long one measured loop
// lasts unless -seconds says otherwise.
const RunSeconds = 20

func main() {
	workload := flag.String("workload", "", "run this workload only and print the contract's JSON line last (default: all workloads)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same request sequences")
	seconds := flag.Float64("seconds", RunSeconds, "how long each measured loop lasts")
	trace := flag.Int("trace", 0, "0 = measured run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	reps := flag.Int("reps", 1, "runs per workload; run i uses seed+i, so a report carries its own spread")
	out := flag.String("out", "", "write the JSON report here")
	compare := flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
	root := flag.String("root", "", "checkout root (default: found from the working directory)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare A.json B.json"))
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if Compare(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}

	workloads := Workloads
	if *workload != "" {
		w, err := WorkloadByName(*workload)
		if err != nil {
			fatal(err)
		}
		workloads = []Workload{w}
	}
	if *root == "" {
		*root = findRoot()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env, err := NewEnv(*root)
	if err != nil {
		fatal(err)
	}
	// The measured driver runs skip the 2-second ceiling probe: only the
	// traced run and the written report print rates against it.
	report := Report{Machine: machineHeader(env.Root, *out != ""), Seed: *seed, Seconds: *seconds, Reps: *reps}
	allCorrect := true
	for _, w := range workloads {
		for i := 0; i < *reps; i++ {
			var run *Run
			if *trace == 1 {
				run, err = env.Trace(ctx, w, *seed+int64(i))
			} else {
				run, err = env.Measure(ctx, w, *seed+int64(i), *seconds)
			}
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			printRun(os.Stdout, run)
			allCorrect = allCorrect && run.Correct
			report.Runs = append(report.Runs, *run)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, report); err != nil {
			fatal(err)
		}
	}
	if *workload != "" {
		// The driver's contract: the result is the last line, and a run that
		// produced one exits 0 even when it reports failures.
		fmt.Println(driverLine(&report.Runs[len(report.Runs)-1]))
		return
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// findRoot returns the checkout root when run from it or from bench/.
func findRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(dir + "/cmd/vista-server"); err == nil {
			return dir
		}
	}
	fatal(fmt.Errorf("cannot find cmd/vista-server from the working directory; pass -root"))
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
