// Package inject implements the Environment Fault Injection Methodology of
// Section 3.3: enumerate the environment-interaction points of an
// execution trace, build the per-point fault list from the EAI catalogs,
// inject one fault per run (direct faults before the interaction point,
// indirect faults after it), observe the security oracle, and score the
// campaign with the two-dimensional adequacy metric.
package inject

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core/coverage"
	"repro/internal/core/eai"
	"repro/internal/core/policy"
	"repro/internal/interpose"
	"repro/internal/sim/kernel"
	"repro/internal/sim/proc"
	"repro/internal/sim/vfs"
)

// Static errors.
var (
	ErrNoWorld    = errors.New("inject: campaign has no world factory")
	ErrEmptyTrace = errors.New("inject: clean run produced no interactions")
	ErrCleanCrash = errors.New("inject: application crashed on the clean run")
)

// Launch describes how to start the application under test in a freshly
// built world.
type Launch struct {
	Cred proc.Cred
	Env  proc.Env
	Cwd  string
	Args []string
	Prog kernel.Program
}

// Factory builds a fresh world and launch description. The engine invokes
// it once per campaign, freezes the result, and forks a copy-on-write
// world per injection run, so every run starts from an identical
// environment — the paper's requirement that faults be injected into a
// known state. A factory must build the same world on every call: the
// test-only reference engine (referenceRun) still calls it once per run
// and checks that forking never moves a result byte.
type Factory func() (*kernel.Kernel, Launch)

// Campaign is one application-under-test configuration.
type Campaign struct {
	// Name labels reports.
	Name string
	// World builds the environment and launch parameters.
	World Factory
	// Policy is the security oracle configuration.
	Policy policy.Policy
	// Faults parameterises the direct-fault appliers.
	Faults eai.Config
	// Sites restricts perturbation to these call sites (the tester's
	// step-4 choice of objects). Empty means every eligible site. An
	// entry ending in "*" is a prefix pattern: "lpr:*" selects every
	// site of the lpr program — the form composed multi-app campaigns
	// use to carry an unrestricted member's whole surface.
	Sites []string
	// Semantics annotates input sites with their Table 5 semantic kind.
	// Unannotated sites fall back to eai.InferSemantic.
	Semantics map[string]eai.Semantic
	// Source names the campaign's source identity: the world-builder
	// configuration and the program under test, e.g. "lpr@1/vulnerable",
	// and nothing else — campaigns that differ only in Sites or engine
	// options share it. It feeds SourceFingerprint, which lets a result
	// cache replay the campaign without re-executing even the clean run,
	// and ExecPlan.SameWorld, which lets a scheduler execute equivalent
	// runs of such campaigns once. The declarer owns its truthfulness —
	// bump the version component whenever the world builder or program
	// changes. Empty disables source-level caching and run sharing; the
	// trace-pinned plan fingerprint still applies.
	Source string
}

// Options are engine variations used by the ablation benchmarks. The zero
// value is the paper's methodology.
type Options struct {
	// NoObjectDedup disables the suppression of direct faults already
	// injected for the same (object, attribute) at an earlier point.
	NoObjectDedup bool
	// OnlyDirect skips indirect faults.
	OnlyDirect bool
	// OnlyIndirect skips direct faults.
	OnlyIndirect bool
	// DirectAfterPoint injects direct faults *after* the interaction point
	// instead of before — deliberately wrong timing, for the ablation
	// showing why Section 3.3 step 6 orders them as it does.
	DirectAfterPoint bool
}

// Injection is the outcome of one fault-injection run.
type Injection struct {
	// Point is the interaction point (site#occur) armed.
	Point string
	// Site is the static call-site portion of Point.
	Site string
	// Kind is the environment-object kind the armed interaction touches.
	Kind interpose.ObjectKind
	// FaultID identifies the catalog fault injected.
	FaultID string
	// Class is direct or indirect.
	Class eai.Class
	// Attr is set for direct faults.
	Attr eai.Attr
	// Sem is set for indirect faults.
	Sem eai.Semantic
	// Applied reports whether the fault actually landed (the armed point
	// was reached and the applier succeeded).
	Applied bool
	// ApplyErr holds the applier error, if any.
	ApplyErr string
	// Exit is the process exit code.
	Exit int
	// CrashMsg is non-empty when the run ended in a simulated memory
	// error.
	CrashMsg string
	// Violations are the oracle findings.
	Violations []policy.Violation
}

// Tolerated reports whether the application tolerated this fault.
func (in Injection) Tolerated() bool { return len(in.Violations) == 0 }

// Result is a completed campaign.
type Result struct {
	Campaign string
	// CleanTrace is the unperturbed execution trace. The engine reads
	// it to plan, fingerprint and seed the oracle. It is nil on a
	// result that came from the result store, a shard artifact or a
	// coordinator completion: their encoding leaves it out, since no
	// report, findings export or merge reads it.
	CleanTrace []interpose.Event
	// TotalSites is every distinct call site on the clean trace, in first-
	// hit order.
	TotalSites []string
	// PerturbedSites is the subset that received at least one injection.
	PerturbedSites []string
	// Injections holds one entry per fault-injection run.
	Injections []Injection
}

// Metric computes the Figure 2 adequacy metric for the campaign.
func (r *Result) Metric() coverage.Metric {
	tolerated := 0
	for _, in := range r.Injections {
		if in.Tolerated() {
			tolerated++
		}
	}
	return coverage.Metric{
		FaultsInjected:  len(r.Injections),
		FaultsTolerated: tolerated,
		PointsPerturbed: len(r.PerturbedSites),
		PointsTotal:     len(r.TotalSites),
	}
}

// Violations returns every non-tolerated injection.
func (r *Result) Violations() []Injection {
	var out []Injection
	for _, in := range r.Injections {
		if !in.Tolerated() {
			out = append(out, in)
		}
	}
	return out
}

// ViolationsBySite groups violating injections by call site.
func (r *Result) ViolationsBySite() map[string][]Injection {
	out := make(map[string][]Injection)
	for _, in := range r.Violations() {
		out[in.Site] = append(out[in.Site], in)
	}
	return out
}

// planned is one (point, fault) pair scheduled for injection.
type planned struct {
	site  string
	occur int
	kind  interpose.ObjectKind
	// armedIdx is the clean-trace index of the armed interaction point.
	// A run replays the clean trace byte-for-byte up to (excluding) this
	// event, which is what lets the seeded oracle skip the prefix.
	armedIdx int
	dir      *eai.DirectFault
	ind      *eai.IndirectFault
}

// Run executes the campaign with the paper's methodology.
func Run(c Campaign) (*Result, error) { return RunWith(c, Options{}) }

// RunWith executes the campaign with explicit engine options: steps 2-5
// (clean run, point enumeration, fault lists) via PrepareWith, then one
// injection run per planned fault (steps 6-8), strictly sequentially.
// Callers that want the runs fanned out across workers use the same
// ExecPlan surface through the sched package.
func RunWith(c Campaign, opt Options) (*Result, error) {
	plan, err := PrepareWith(c, opt)
	if err != nil {
		return nil, err
	}
	res := plan.Shell()
	res.Injections = make([]Injection, 0, plan.NumRuns())
	for i := 0; i < plan.NumRuns(); i++ {
		res.Injections = append(res.Injections, plan.RunOne(i))
	}
	return &res, nil
}

// callCwd returns the working directory the call was made from, falling
// back to the launch cwd for older traces.
func callCwd(call *interpose.Call, l Launch) string {
	if call.Cwd != "" {
		return call.Cwd
	}
	if l.Cwd != "" {
		return l.Cwd
	}
	return "/"
}

// objectIdentity keys the direct-fault dedup: the resolved object when
// known, otherwise the canonicalised argument path.
func objectIdentity(call *interpose.Call) string {
	return vfs.Canon(callCwd(call, Launch{}), call.Path)
}

// traceBufs recycles run-trace backing buffers across injection runs. A
// run's trace is only read during its own oracle pass and discarded with
// its kernel, so the buffers — sized once from the clean trace — make
// steady-state recording allocation-free.
var traceBufs = sync.Pool{New: func() any { return new([]interpose.Event) }}

// runOne performs a single fault-injection run (steps 6-8). phase, when
// non-nil, observes the world/exec/compare segments; it deliberately
// lives outside Options so telemetry never perturbs cache fingerprints.
func (ep *ExecPlan) runOne(i int, phase PhaseFunc) Injection {
	c, opt, pl := ep.campaign, ep.opt, ep.plans[i]

	worldStart := time.Now()
	k, l := ep.world.world()

	// Seed trace recording with a pooled buffer sized from the clean
	// trace: perturbed runs rarely record more events than the clean run.
	bufp := traceBufs.Get().(*[]interpose.Event)
	if need := len(ep.shell.CleanTrace) + 1; cap(*bufp) < need {
		*bufp = make([]interpose.Event, 0, need)
	}
	k.Bus.ReserveTrace(*bufp)

	p := k.NewProc(l.Cred, l.Env.Clone(), l.Cwd, l.Args...)

	inj := Injection{
		Point: interpose.PointID(pl.site, pl.occur),
		Site:  pl.site,
		Kind:  pl.kind,
	}

	// Snap defaults to the pre-run world — the frozen base image, so no
	// deep clone; a direct fault replaces it with the post-injection world
	// so the oracle judges against what the attacker actually arranged.
	base := ep.world.baseFS()
	snap := base
	armed := false

	switch {
	case pl.dir != nil:
		f := pl.dir
		inj.FaultID = f.ID
		inj.Class = eai.ClassDirect
		inj.Attr = f.Attr
		apply := func(call *interpose.Call) {
			if armed || call.Site != pl.site || call.Occur != pl.occur {
				return
			}
			armed = true
			ctx := &eai.Ctx{
				Kern:   k,
				Call:   call,
				Cwd:    p.Cwd,
				SetCwd: func(d string) { p.Cwd = d },
				Cfg:    c.Faults,
			}
			if err := f.Apply(ctx); err != nil {
				inj.ApplyErr = err.Error()
				return
			}
			inj.Applied = true
			k.Bus.MarkMutated()
			// Zero-clone post-injection snapshot: freeze the world the
			// fault just arranged and let the rest of the run proceed on
			// a fresh fork.
			snap = k.FreezeFS()
		}
		if opt.DirectAfterPoint {
			k.Bus.OnPost(func(call *interpose.Call, _ *interpose.Result) { apply(call) })
		} else {
			k.Bus.OnPre(apply)
		}
	case pl.ind != nil:
		f := pl.ind
		inj.FaultID = f.ID
		inj.Class = eai.ClassIndirect
		inj.Sem = f.Sem
		k.Bus.OnPost(func(call *interpose.Call, r *interpose.Result) {
			if armed || call.Site != pl.site || call.Occur != pl.occur {
				return
			}
			armed = true
			inj.Applied = true
			k.Bus.MarkMutated()
			switch {
			case r.Data != nil:
				r.Data = f.Mutate(r.Data)
			case r.Str != "":
				r.Str = string(f.Mutate([]byte(r.Str)))
			}
		})
	}

	execStart := time.Now()
	if phase != nil {
		phase("world", worldStart, execStart.Sub(worldStart))
	}
	exit, crash := k.Run(p, l.Prog)
	compareStart := time.Now()
	if phase != nil {
		phase("exec", execStart, compareStart.Sub(execStart))
	}
	inj.Exit = exit
	trace := k.Bus.Trace()
	obs := policy.Observation{
		Trace:  trace,
		Stdout: p.Stdout.Bytes(),
		Snap:   snap,
	}
	if crash != nil {
		inj.CrashMsg = crash.Msg
		obs.CrashMsg = crash.Msg
	}
	// The seeded oracle is sound exactly when the run's pre-injection
	// world is the frozen base the seed was computed against — true for
	// every indirect and unapplied-direct run. An applied direct fault
	// replaced snap with the post-injection world above, which sends it
	// down the full-walk branch.
	if snap == base {
		inj.Violations = ep.seed.EvaluateFrom(pl.armedIdx, obs)
	} else {
		inj.Violations = c.Policy.Evaluate(obs)
	}
	if phase != nil {
		phase("compare", compareStart, time.Since(compareStart))
	}
	// Recycle the trace buffer. Violations carry only derived strings and
	// the kernel dies with this call, so nothing can observe the reuse;
	// clearing first drops the payload references the events pin.
	clear(trace[:cap(trace)])
	*bufp = trace[:0]
	traceBufs.Put(bufp)
	return inj
}
