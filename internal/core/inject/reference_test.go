package inject

import (
	"repro/internal/core/eai"
	"repro/internal/core/policy"
	"repro/internal/interpose"
)

// referenceRun is the paper's engine (Section 3.3, steps 6-8) written
// once, as plainly as possible, to cross-check the optimised one. Every
// run calls the campaign Factory for a fresh world, the oracle's pre-run
// and post-direct-fault states are deep FS.Clone copies, and every
// verdict is a full Policy.Evaluate walk over the run's trace. Nothing is
// pooled, forked or seeded; only planning (steps 2-5) is shared with the
// engine, with the clean run and probe world built by the factory too.
func referenceRun(c Campaign, opt Options) (*Result, error) {
	if c.World == nil {
		return nil, ErrNoWorld
	}
	c.Faults = c.Faults.WithDefaults()
	pr, err := planCampaign(c, opt, c.World)
	if err != nil {
		return nil, err
	}
	res := *pr.result
	// Non-nil even for a zero-run campaign, as RunWith returns it.
	res.Injections = make([]Injection, 0, len(pr.plans))
	for _, pl := range pr.plans {
		res.Injections = append(res.Injections, referenceOne(c, opt, pl))
	}
	return &res, nil
}

// referenceOne performs one fault-injection run in a freshly built world.
func referenceOne(c Campaign, opt Options, pl planned) Injection {
	k, l := c.World()
	p := k.NewProc(l.Cred, l.Env.Clone(), l.Cwd, l.Args...)
	inj := Injection{
		Point: interpose.PointID(pl.site, pl.occur),
		Site:  pl.site,
		Kind:  pl.kind,
	}
	snap := k.FS.Clone()
	armed := false
	arm := func(call *interpose.Call) bool {
		if armed || call.Site != pl.site || call.Occur != pl.occur {
			return false
		}
		armed = true
		return true
	}

	switch {
	case pl.dir != nil:
		f := pl.dir
		inj.FaultID, inj.Class, inj.Attr = f.ID, eai.ClassDirect, f.Attr
		apply := func(call *interpose.Call) {
			if !arm(call) {
				return
			}
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
			snap = k.FS.Clone()
		}
		if opt.DirectAfterPoint {
			k.Bus.OnPost(func(call *interpose.Call, _ *interpose.Result) { apply(call) })
		} else {
			k.Bus.OnPre(apply)
		}
	case pl.ind != nil:
		f := pl.ind
		inj.FaultID, inj.Class, inj.Sem = f.ID, eai.ClassIndirect, f.Sem
		k.Bus.OnPost(func(call *interpose.Call, r *interpose.Result) {
			if !arm(call) {
				return
			}
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

	exit, crash := k.Run(p, l.Prog)
	inj.Exit = exit
	obs := policy.Observation{
		Trace:  k.Bus.Trace(),
		Stdout: p.Stdout.Bytes(),
		Snap:   snap,
	}
	if crash != nil {
		inj.CrashMsg = crash.Msg
		obs.CrashMsg = crash.Msg
	}
	inj.Violations = c.Policy.Evaluate(obs)
	return inj
}
