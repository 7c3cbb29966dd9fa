// Package faultinject is a deterministic failpoint layer for the Vista
// reproduction. Production code marks the I/O and allocation edges it assumes
// succeed — spill writes, feature-store entry persistence, batch-buffer
// allocation, stage boundaries — with named sites; tests arm trigger policies
// at those sites to drive error paths, torn writes, and mid-operation process
// kills that real disks and real crashes produce nondeterministically.
//
// Site naming convention: "<package>/<area>.<step>", e.g.
// "dataflow/spill.write" or "featurestore/entry.rename"; dynamic variants use
// a ":<label>" suffix, e.g. "core/stage:join". Each package exports its site
// names as Fault* constants next to the code that hits them.
//
// The layer is zero-overhead when disarmed: Hit and HitBytes consult a single
// package-level atomic before touching any lock, so a production binary pays
// one atomic load per site visit. Policies are deterministic given the call
// sequence (fail-nth-call, fail-every-kth, fail-after-N-bytes, one-shot
// kill-here) with a seeded-random mode for chaos stress runs.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// KillExitCode is the process exit status a Kill policy dies with. Crash
// harnesses re-exec the test binary and require exactly this code, so an
// unrelated fatal error can never masquerade as the injected crash.
const KillExitCode = 86

// Error is the typed error every firing failpoint surfaces. Callers wrap it
// with %w, so tests recover it from any depth with errors.As.
type Error struct {
	// Site is the failpoint site that fired.
	Site string
	// Policy describes the armed policy, e.g. "fail-nth(3)".
	Policy string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: fault at %s [%s]", e.Site, e.Policy)
}

// AsFault returns the *Error in err's chain, if any.
//
//vista:keep how tests recover an injected fault from a wrapped error
func AsFault(err error) (*Error, bool) {
	var fe *Error
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// verdict is a policy's decision for one site visit.
type verdict struct {
	fail bool // the operation must fail with a typed *Error
	kill bool // the process must die here (exitFunc)
	// silent, at byte sites, means the operation reports success while only
	// allowed bytes become durable — a no-fsync torn write.
	silent bool
	// allowed is the byte prefix that lands before the fault takes effect
	// (byte sites only; ignored elsewhere).
	allowed int64
}

// Policy decides, per call, whether a site fires. Implementations are
// stateful (call ordinals, byte cursors, one-shot latches); the registry
// serializes decide calls under its lock.
type Policy interface {
	// decide is given the 1-based call ordinal at the site and, at byte
	// sites, the size of the transfer (0 at plain sites).
	decide(call int64, n int64) verdict
	// String describes the policy for Error values and reports.
	String() string
}

// ByteVerdict is HitBytes's answer to an I/O site moving n bytes.
type ByteVerdict struct {
	// Allowed is how many bytes may land before the fault takes effect;
	// equal to the full transfer size when no fault fires.
	Allowed int64
	// Err, when non-nil, means the operation must fail after persisting at
	// most Allowed bytes (a torn write the caller is told about).
	Err error
	// SilentTear means the operation must report success while persisting
	// only Allowed bytes (a torn write nobody is told about — the no-fsync
	// rename hazard crash-consistency tests exercise).
	SilentTear bool
}

type site struct {
	policy Policy
	calls  int64
}

var (
	armedCount atomic.Int64 // number of armed sites; the disarmed fast path

	mu       sync.Mutex
	sites    = map[string]*site{}
	exitFunc = func(code int) { os.Exit(code) }
)

// Arm installs a policy at a named site, replacing any previous policy and
// resetting the site's counters.
//
//vista:keep the fault-injection harness other packages' tests drive; production code only visits sites
func Arm(name string, p Policy) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; !ok {
		armedCount.Add(1)
	}
	sites[name] = &site{policy: p}
}

// Disarm removes the policy at a site; a no-op for unarmed sites.
//
//vista:keep the fault-injection harness other packages' tests drive; production code only visits sites
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; ok {
		delete(sites, name)
		armedCount.Add(-1)
	}
}

// DisarmAll removes every armed site. Tests defer this so one failed test
// cannot poison the next.
//
//vista:keep the fault-injection harness other packages' tests drive; production code only visits sites
func DisarmAll() {
	mu.Lock()
	defer mu.Unlock()
	armedCount.Add(-int64(len(sites)))
	sites = map[string]*site{}
}

// ArmedSites returns the names of all armed sites, sorted. CI fails a test
// binary whose TestMain finds sites still armed at exit.
//
//vista:keep the fault-injection harness other packages' tests drive; production code only visits sites
func ArmedSites() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// visit runs the armed policy (if any) for one site call and applies kill
// semantics. It returns the policy's verdict with fail/silent resolved.
func visit(name string, n int64) (verdict, string) {
	mu.Lock()
	s, ok := sites[name]
	if !ok {
		mu.Unlock()
		return verdict{allowed: n}, ""
	}
	s.calls++
	v := s.policy.decide(s.calls, n)
	desc := s.policy.String()
	exit := exitFunc
	mu.Unlock()
	if v.kill {
		// A crash point: die without running deferred cleanup, like a real
		// kill -9 between two writes. exitFunc normally never returns; the
		// layer's own tests substitute it and take the fail path instead.
		exit(KillExitCode)
		v.kill, v.fail = false, true
	}
	if !v.fail && !v.silent {
		v.allowed = n
	}
	return v, desc
}

// Hit marks a plain (non-byte) failpoint site. It returns nil when the layer
// is disarmed or the site's policy does not fire, and a typed *Error when it
// does. A Kill policy terminates the process inside Hit.
func Hit(name string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	v, desc := visit(name, 0)
	if v.fail {
		return &Error{Site: name, Policy: desc}
	}
	return nil
}

// HitBytes marks a byte-transfer failpoint site (a write or read of n bytes).
// The caller must honor the verdict: persist at most Allowed bytes, then fail
// with Err if non-nil, or report success if SilentTear is set.
func HitBytes(name string, n int64) ByteVerdict {
	if armedCount.Load() == 0 {
		return ByteVerdict{Allowed: n}
	}
	v, desc := visit(name, n)
	out := ByteVerdict{Allowed: v.allowed, SilentTear: v.silent}
	if v.fail {
		out.Err = &Error{Site: name, Policy: desc}
	}
	return out
}

// --- Policies ---

// FailAlways fires on every call.
//
//vista:keep a policy for the fault-injection harness; production code arms none
func FailAlways() Policy {
	return policyFunc("fail-always", func(call, n int64) verdict {
		return verdict{fail: true}
	})
}

// FailNth fires exactly on the nth call (1-based) and never again.
//
//vista:keep a policy for the fault-injection harness; production code arms none
func FailNth(nth int64) Policy {
	return policyFunc(fmt.Sprintf("fail-nth(%d)", nth), func(call, n int64) verdict {
		return verdict{fail: call == nth}
	})
}

// FailEveryKth fires on every kth call (k, 2k, 3k, ...).
//
//vista:keep a policy for the fault-injection harness; production code arms none
func FailEveryKth(k int64) Policy {
	if k <= 0 {
		k = 1
	}
	return policyFunc(fmt.Sprintf("fail-every(%d)", k), func(call, n int64) verdict {
		return verdict{fail: call%k == 0}
	})
}

// FailAfterBytes fires once the site's cumulative transferred bytes would
// exceed limit; the verdict's Allowed is the remaining headroom, so the
// caller persists a torn prefix before failing — a disk filling up mid-write.
//
//vista:keep a policy for the fault-injection harness; production code arms none
func FailAfterBytes(limit int64) Policy {
	var seen int64
	var fired bool
	return policyFunc(fmt.Sprintf("fail-after-bytes(%d)", limit), func(call, n int64) verdict {
		if fired {
			return verdict{fail: true}
		}
		if seen+n <= limit {
			seen += n
			return verdict{}
		}
		fired = true
		allowed := limit - seen
		if allowed < 0 {
			allowed = 0
		}
		return verdict{fail: true, allowed: allowed}
	})
}

// SilentTruncate makes one write at the site silently persist only the first
// keep bytes while reporting success — the no-fsync torn write that leaves a
// truncated file behind a "successful" rename. One-shot.
//
//vista:keep a policy for the fault-injection harness; production code arms none
func SilentTruncate(keep int64) Policy {
	var fired bool
	return policyFunc(fmt.Sprintf("silent-truncate(%d)", keep), func(call, n int64) verdict {
		if fired || keep >= n {
			return verdict{}
		}
		fired = true
		return verdict{silent: true, allowed: keep}
	})
}

// Kill terminates the process at the site's first visit — the kill-here point
// crash-consistency tests arm between two persistence steps. One-shot by
// construction (the process does not survive it).
//
//vista:keep a policy for the fault-injection harness; production code arms none
func Kill() Policy { return KillNth(1) }

// KillNth terminates the process at the site's nth visit.
func KillNth(nth int64) Policy {
	return policyFunc(fmt.Sprintf("kill-nth(%d)", nth), func(call, n int64) verdict {
		return verdict{kill: call == nth}
	})
}

// FailRandom fires with probability p per call, driven by its own seeded
// generator — the stress mode: schedules differ across seeds but replay
// exactly for a given seed and call sequence.
//
//vista:keep a policy for the fault-injection harness; production code arms none
func FailRandom(seed int64, p float64) Policy {
	rng := rand.New(rand.NewSource(seed))
	return policyFunc(fmt.Sprintf("fail-random(seed=%d,p=%g)", seed, p), func(call, n int64) verdict {
		return verdict{fail: rng.Float64() < p}
	})
}

// Callback runs fn at every visit without failing the site. It turns a site
// into a synchronization point: concurrency tests use it to observe which
// locks are (not) held while the marked operation is in flight.
//
//vista:keep a policy for the fault-injection harness; production code arms none
func Callback(fn func()) Policy {
	return policyFunc("callback", func(call, n int64) verdict {
		fn()
		return verdict{}
	})
}

// policyFunc adapts a decide function into a Policy.
func policyFunc(name string, decide func(call, n int64) verdict) Policy {
	return &simplePolicy{name: name, fn: decide}
}

type simplePolicy struct {
	name string
	fn   func(call, n int64) verdict
}

func (p *simplePolicy) decide(call, n int64) verdict { return p.fn(call, n) }
func (p *simplePolicy) String() string               { return p.name }
