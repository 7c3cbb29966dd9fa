// Package crashtest implements the subprocess re-exec pattern for
// crash-consistency tests. A parent test re-runs its own test binary pointed
// at a single helper test function; the helper arms a one-shot Kill
// failpoint, drives the workload until faultinject terminates the process
// mid-operation (no deferred cleanup, like a real kill -9), and the parent
// then reopens the on-disk state and asserts recovery invariants.
//
// Usage, in the package under test:
//
//	func TestCrashHelper(t *testing.T) {
//		scenario := crashtest.Scenario()
//		if scenario == "" {
//			t.Skip("not a crash helper process")
//		}
//		// ... arm faultinject.Kill() at a site, run the workload ...
//		t.Fatalf("scenario %s did not kill the process", scenario)
//	}
//
//	func TestCrashRecovery(t *testing.T) {
//		dir := t.TempDir()
//		crashtest.Run(t, "TestCrashHelper", "my-scenario", dir)
//		// ... reopen dir, assert invariants ...
//	}
package crashtest

import (
	"errors"
	"os"
	"os/exec"
	"testing"

	"repro/internal/faultinject"
)

const (
	scenarioEnv = "VISTA_CRASH_SCENARIO"
	dirEnv      = "VISTA_CRASH_DIR"
)

// Scenario returns the scenario name when the current process is a re-exec'd
// crash helper, or "" in a normal test process.
//
//vista:keep the crash-consistency harness other packages' tests re-exec through
func Scenario() string { return os.Getenv(scenarioEnv) }

// Dir returns the working directory handed to the crash helper by Run.
//
//vista:keep the crash-consistency harness other packages' tests re-exec through
func Dir() string { return os.Getenv(dirEnv) }

// Run re-executes the current test binary running only helperTest under the
// given scenario and directory, and requires the child to die with
// faultinject.KillExitCode — a clean exit or any other status fails the
// parent test, so a scenario that never reaches its kill site cannot pass
// silently.
//
//vista:keep the crash-consistency harness other packages' tests re-exec through
func Run(t *testing.T, helperTest, scenario, dir string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+helperTest+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), scenarioEnv+"="+scenario, dirEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("crash helper %s exited cleanly, want exit code %d\noutput:\n%s",
			scenario, faultinject.KillExitCode, out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("crash helper %s failed to run: %v", scenario, err)
	}
	if code := ee.ExitCode(); code != faultinject.KillExitCode {
		t.Fatalf("crash helper %s exited with code %d, want %d\noutput:\n%s",
			scenario, code, faultinject.KillExitCode, out)
	}
}
