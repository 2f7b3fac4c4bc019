package inject

import (
	"time"

	"repro/internal/core/policy"
	"repro/internal/interpose"
)

// ExecPlan is a materialised campaign: the clean-run planning state of
// Section 3.3 steps 2-5 plus the ordered list of injection runs steps 6-8
// will perform. Each run forks its own world from the campaign's frozen
// clean image and shares nothing mutable with the others, so distinct
// indices may be executed from concurrent goroutines; a scheduler that writes
// RunOne(i) into slot i of a results slice reproduces the sequential
// engine's Result bit for bit.
type ExecPlan struct {
	campaign Campaign
	opt      Options
	shell    *Result
	plans    []planned
	// world hands out per-run worlds: copy-on-write forks of one frozen
	// clean image. One snapshot serves every run of the plan — including
	// runs executed concurrently by the sched dispatcher's workers.
	world worldSource
	// seed is the campaign's precomputed prefix oracle state, shared
	// read-only by every run. runOne consults it only for runs whose
	// pre-injection world is the frozen base image — the condition under
	// which seeded evaluation is provably identical to the full walk.
	seed *policy.Seed
}

// Prepare materialises the campaign's execution plan under default
// engine options.
func Prepare(c Campaign) (*ExecPlan, error) { return PrepareWith(c, Options{}) }

// PrepareWith materialises the campaign's execution plan: the clean run,
// the interaction-point enumeration, and the per-point fault lists.
func PrepareWith(c Campaign, opt Options) (*ExecPlan, error) {
	if c.World == nil {
		return nil, ErrNoWorld
	}
	c.Faults = c.Faults.WithDefaults()
	ep := &ExecPlan{campaign: c, opt: opt, world: newWorldSource(c.World)}
	pr, err := planCampaign(c, opt, ep.world.world)
	if err != nil {
		return nil, err
	}
	ep.shell, ep.plans = pr.result, pr.plans
	ep.seed = policy.NewSeed(c.Policy, pr.result.CleanTrace, ep.world.baseFS())
	return ep, nil
}

// NumRuns is the number of injection runs the plan schedules.
func (p *ExecPlan) NumRuns() int { return len(p.plans) }

// Planned describes run i without executing it.
func (p *ExecPlan) Planned(i int) PlannedInjection {
	pl := p.plans[i]
	pi := PlannedInjection{
		Point: interpose.PointID(pl.site, pl.occur),
		Site:  pl.site,
		Kind:  pl.kind,
	}
	switch {
	case pl.dir != nil:
		pi.FaultID = pl.dir.ID
		pi.Class = pl.dir.Class()
		pi.Attr = pl.dir.Attr
	case pl.ind != nil:
		pi.FaultID = pl.ind.ID
		pi.Class = pl.ind.Class()
		pi.Sem = pl.ind.Sem
	}
	return pi
}

// RunOne executes injection run i (steps 6-8) in a fresh world and
// returns its outcome. It is safe for concurrent use: every call forks
// its own kernel and mutates only its own Injection; the shared seed is
// immutable.
func (p *ExecPlan) RunOne(i int) Injection {
	return p.runOne(i, nil)
}

// PhaseFunc observes the internal phases of one injection run as they
// complete: "world" (environment construction and fault arming),
// "exec" (the perturbed execution), and "compare" (the security-oracle
// evaluation), in that order. Observers receive wall-clock timings
// only — they cannot influence the run, so results stay bit-identical
// with or without observation.
type PhaseFunc func(phase string, start time.Time, d time.Duration)

// RunOneObserved is RunOne with per-phase timing callbacks — the span
// hook the suite tracer uses to render each run as a plan→exec→compare
// span tree. fn may be nil, making it exactly RunOne.
func (p *ExecPlan) RunOneObserved(i int, fn PhaseFunc) Injection {
	return p.runOne(i, fn)
}

// Shell returns a copy of the campaign result with the planning fields
// (clean trace, site lists) filled in and Injections left for the caller
// to populate — in plan order, one entry per RunOne index.
func (p *ExecPlan) Shell() Result { return *p.shell }
