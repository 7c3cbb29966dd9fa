// Package lifecycle owns the lifecycle of one served feature-transfer run: the
// single place that knows in which order a run meets the sharing coordinator,
// the admission controller, the engine, and the calibration recorder, and
// that settles each of them exactly once on every exit path. vista-server's
// POST /run, the vista CLI, and the admission/share exhibits all execute runs
// through Runner.Do and only map its typed Outcome onto their own surface
// (HTTP statuses, exit codes, flood counters).
//
// The order Do enforces: resolve the run's identity (core.Resolve) once for
// everything below; join the sharing group, which never waits (the first
// arrival leads at once); as a follower, wait for the leader before
// admission, holding zero budget (a queued follower must never starve its
// own leader), then re-read the role, since a failed leader promotes a
// follower; price by role and hold the grant for the whole run; run; record
// calibration while still holding grant and ticket; release the grant, then
// finish the ticket with the run's error, which commits the role the outcome
// reports.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/share"
)

// Runner carries the process-wide collaborators one run moves through.
// Every field is optional; the zero value runs every spec solo, unadmitted
// and unrecorded. A Runner is shared by all concurrent runs of a process and
// must not be copied after first use.
type Runner struct {
	// Share coalesces concurrent identical runs into one partial-inference
	// pass; nil runs every request solo.
	Share *share.Coordinator
	// Admit gates runs against a modeled-memory budget; nil admits
	// everything.
	Admit *admission.Controller
	// Calib receives every completed run's estimate-vs-measured samples; nil
	// records nothing.
	Calib *calib.Recorder

	seq atomic.Uint64
}

// Kind classifies how a run's lifecycle ended.
type Kind int

// The lifecycle outcomes. Every kind but Completed carries Outcome.Err.
const (
	// Completed: the run finished; Outcome.Result is set.
	Completed Kind = iota + 1
	// Crashed: the run hit a modeled out-of-memory condition (the paper's
	// Section 4.1 crash scenarios); Err is the *memory.OOMError.
	Crashed
	// RejectedDeadline: the run waited for admission budget past the queue
	// deadline; retryable after Outcome.RetryAfter.
	RejectedDeadline
	// RejectedOverload: the admission queue was full or the run's price
	// exceeds the whole budget; not worth an immediate retry.
	RejectedOverload
	// Abandoned: ctx was cancelled — before joining a sharing group, while
	// waiting for a leader or for budget, or mid-run.
	Abandoned
	// GroupFailed: the run was a sharing follower and every candidate leader
	// of its group failed.
	GroupFailed
	// Failed: the run returned any other error (an invalid or infeasible
	// spec, an injected fault).
	Failed
)

// Outcome is everything a caller needs to report one run.
type Outcome struct {
	Kind Kind
	// Result is the completed run's output (nil for every other kind).
	Result *core.Result
	// Err is the error that ended the lifecycle (nil only for Completed).
	Err error
	// RunSeq numbers the runs that reached execution, 1-based in start
	// order; 0 means the request ended before a run started.
	RunSeq uint64
	// RetryAfter is the admission controller's live backoff hint (set for
	// RejectedDeadline).
	RetryAfter time.Duration
	// Role and GroupSize are a completed run's place in its sharing group;
	// GroupSize is 0 when the run did not go through the coordinator.
	Role      share.Role
	GroupSize int
	// CompareErr and RecordErr report a completed run's calibration record:
	// CompareErr when there was nothing to compare — no simulator estimate,
	// or a trace whose root carries no storage measurement — and nothing
	// was recorded; RecordErr when the samples reached the rolling
	// aggregates but the log append failed. Calibration is observability —
	// neither demotes the outcome.
	CompareErr, RecordErr error
}

// Do executes spec through the whole lifecycle under ctx. dataset names the
// preset the spec's rows came from; it labels the calibration record.
func (l *Runner) Do(ctx context.Context, spec core.Spec, dataset string) (out Outcome) {
	// Sharing, pricing and the run each need the model, its plan and the
	// run's content address; derive them once. A spec that does not resolve
	// goes on without an identity and fails the same way in core.RunContext,
	// settling ticket and run sequence as any failed run does.
	if id, err := core.Resolve(spec); err == nil {
		spec.Identity = id
	}

	// Identity is the content-addressed fingerprint: two runs share iff they
	// would materialize byte-identical feature tables. An unshareable spec
	// keeps a nil ticket, which every Ticket method treats as solo.
	var ticket *share.Ticket
	if l.Share != nil {
		if fp, ok := core.ShareFingerprint(spec); ok {
			var err error
			ticket, err = l.Share.Join(ctx,
				share.Identity{Model: fp.Model, WeightsSum: fp.WeightsSum, DataSum: fp.DataSum},
				share.Member{NumLayers: fp.NumLayers, InferenceFLOPs: fp.InferenceFLOPs})
			if err != nil {
				// The request was already cancelled; it never joined.
				return Outcome{Kind: Abandoned, Err: err}
			}
		}
	}
	// out.Err is nil only when the run completed, so this settles the ticket
	// with the run's real outcome on every return below. Finish commits the
	// role, so a completed run reports it afterwards: a leader nobody joined
	// is a solo.
	defer func() {
		ticket.Finish(out.Err)
		if out.Kind == Completed && ticket != nil {
			out.Role, out.GroupSize = ticket.Role(), ticket.GroupSize()
		}
	}()

	role := ticket.Role()
	if role == share.Follower {
		att, err := ticket.AwaitLeader(ctx)
		if err != nil {
			if errors.Is(err, share.ErrGroupFailed) {
				return Outcome{Kind: GroupFailed, Err: err}
			}
			return Outcome{Kind: Abandoned, Err: err}
		}
		spec.FeatureSource = att.Source
		role = ticket.Role() // Leader now, if promoted
	}
	if role == share.Leader {
		spec.FeatureSource = ticket.Source() // resume a failed pass's partial progress
		spec.FeatureSink = ticket.Sink()
	}

	// An unpriceable spec skips admission — the run itself fails identically
	// below, holding no engine memory.
	if l.Admit != nil {
		priceFn := core.Price
		if role == share.Follower {
			priceFn = core.PriceFollower
		}
		if price, err := priceFn(spec); err == nil {
			grant, err := l.Admit.Admit(ctx, price)
			if err != nil {
				return l.rejected(err)
			}
			defer grant.Release()
		}
	}

	ticket.Start()
	seq := l.seq.Add(1)
	res, err := core.RunContext(ctx, spec)
	if err != nil {
		out = Outcome{Kind: Failed, Err: err, RunSeq: seq}
		if ctx.Err() != nil {
			out.Kind = Abandoned
		} else if oom, ok := memory.IsOOM(err); ok {
			out.Kind, out.Err = Crashed, oom
		}
		return out
	}
	out = Outcome{Kind: Completed, Result: res, RunSeq: seq}
	if l.Calib != nil {
		samples, err := calib.CompareRun(calib.EnvFromSpec(spec, dataset), res.Trace, nil)
		if err != nil {
			out.CompareErr = err
		} else {
			key := fmt.Sprintf("%s|%s|%d|%d", spec.ModelName, dataset, len(spec.StructRows), spec.Seed)
			out.RecordErr = l.Calib.Record(key, samples)
		}
	}
	return out
}

// rejected maps an admission failure onto its outcome: a queue deadline is
// retryable, a full queue or an unpayable price is plain overload, and
// anything else is the caller's context ending the wait.
func (l *Runner) rejected(err error) Outcome {
	switch {
	case errors.Is(err, admission.ErrDeadline):
		return Outcome{Kind: RejectedDeadline, Err: err, RetryAfter: l.Admit.RetryHint()}
	case errors.Is(err, admission.ErrQueueFull), errors.Is(err, admission.ErrOversize):
		return Outcome{Kind: RejectedOverload, Err: err}
	default:
		return Outcome{Kind: Abandoned, Err: err}
	}
}
