package inject

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core/coverage"
	"repro/internal/core/eai"
	"repro/internal/interpose"
	"repro/internal/sim/kernel"
)

// PlannedInjection describes one scheduled (point, fault) pair without
// running it — the fault list of Section 3.3 step 5, materialised for
// inspection.
type PlannedInjection struct {
	Point   string
	Site    string
	Kind    interpose.ObjectKind
	FaultID string
	Class   eai.Class
	Attr    eai.Attr
	Sem     eai.Semantic
}

// RunUntilAdequate implements the Section 3.3 step 9 loop: start from the
// campaign's site list, and widen the selected-site set one site per round
// until the interaction-coverage adequacy criterion is met or every site
// has been attempted (a site may contribute no faults — e.g. everything it
// touches was already perturbed at an earlier point — in which case it is
// still counted as attempted so the loop terminates). It returns the final
// result and the number of rounds.
func RunUntilAdequate(c Campaign, icThreshold float64) (*Result, int, error) {
	res, err := Run(c)
	if err != nil {
		return nil, 0, err
	}
	rounds := 1
	attempted := map[string]bool{}
	for _, s := range c.Sites {
		attempted[s] = true
	}
	if len(c.Sites) == 0 {
		// An empty site list already selects everything.
		return res, rounds, nil
	}
	for !coverage.Adequate(res.Metric(), icThreshold) {
		var candidates []string
		counts := map[string]int{}
		for i := range res.CleanTrace {
			counts[res.CleanTrace[i].Call.Site]++
		}
		for _, s := range res.TotalSites {
			if !attempted[s] {
				candidates = append(candidates, s)
			}
		}
		if len(candidates) == 0 {
			break // every site attempted; adequacy is as high as it gets
		}
		sort.SliceStable(candidates, func(i, j int) bool {
			return counts[candidates[i]] > counts[candidates[j]]
		})
		next := candidates[0]
		attempted[next] = true
		c.Sites = append(c.Sites, next)
		res, err = Run(c)
		if err != nil {
			return nil, rounds, err
		}
		rounds++
	}
	return res, rounds, nil
}

// CleanSites executes only the campaign's clean run (step 2) and
// returns every distinct call site on its trace, in first-hit order —
// the site surface without the fault-list planning PrepareWith adds.
// Catalog generators use it to enumerate a campaign's perturbable
// surface cheaply (no per-site probe worlds are built).
func CleanSites(c Campaign) ([]string, error) {
	if c.World == nil {
		return nil, ErrNoWorld
	}
	// A single probe run gains nothing from snapshotting; build directly.
	k, err := cleanRun(c.World)
	if err != nil {
		return nil, err
	}
	return k.Bus.Sites(), nil
}

// cleanRun performs step 2 — one unperturbed execution in a fresh
// world — and returns the kernel holding the recorded trace. Shared
// by planning and the CleanSites probe so the two can never diverge
// on clean-run semantics.
func cleanRun(world Factory) (*kernel.Kernel, error) {
	k, l := world()
	p := k.NewProc(l.Cred, l.Env, l.Cwd, l.Args...)
	if _, crash := k.Run(p, l.Prog); crash != nil {
		return nil, fmt.Errorf("%w: %s", ErrCleanCrash, crash.Msg)
	}
	if len(k.Bus.Trace()) == 0 {
		return nil, ErrEmptyTrace
	}
	return k, nil
}

// siteFilter implements the Campaign.Sites selection: exact site names
// plus trailing-"*" prefix patterns. An empty filter selects everything.
type siteFilter struct {
	exact    map[string]bool
	prefixes []string
	empty    bool
}

// newSiteFilter compiles a Sites list.
func newSiteFilter(sites []string) siteFilter {
	f := siteFilter{empty: len(sites) == 0}
	for _, s := range sites {
		if n := len(s); n > 0 && s[n-1] == '*' {
			f.prefixes = append(f.prefixes, s[:n-1])
			continue
		}
		if f.exact == nil {
			f.exact = make(map[string]bool, len(sites))
		}
		f.exact[s] = true
	}
	return f
}

// match reports whether the filter selects the site.
func (f *siteFilter) match(site string) bool {
	if f.empty || f.exact[site] {
		return true
	}
	for _, p := range f.prefixes {
		if strings.HasPrefix(site, p) {
			return true
		}
	}
	return false
}

// planResult is the internal planning outcome shared by PrepareWith and Run.
type planResult struct {
	result *Result
	plans  []planned
}

// planCampaign performs steps 2-5 (clean run, point enumeration, fault
// lists) and returns both the planning state and the result shell. The
// clean run and the single shared probe world come from world: the
// engine passes its worldSource's fork, the reference engine the
// campaign factory itself.
func planCampaign(c Campaign, opt Options, world Factory) (*planResult, error) {
	c.Faults = c.Faults.WithDefaults()

	clean, err := cleanRun(world)
	if err != nil {
		return nil, err
	}
	trace := clean.Bus.Trace()

	res := &Result{
		Campaign:   c.Name,
		CleanTrace: trace,
		TotalSites: clean.Bus.Sites(),
	}

	include := newSiteFilter(c.Sites)

	// first[k] is the trace index of site k's first event. Sites are in
	// first-hit order, so every event before that one belongs to an
	// earlier site.
	first := make([]int, len(res.TotalSites))
	for i, k := 0, 0; k < len(first); i++ {
		if trace[i].Call.Site == res.TotalSites[k] {
			first[k] = i
			k++
		}
	}

	// Applies predicates are read-only (they probe object existence and
	// attributes), so one probe world serves every site. Its filesystem
	// is frozen as a tripwire: a (hypothetically) mutating predicate
	// panics loudly instead of silently leaking state into later sites'
	// probes. Built lazily — campaigns with no direct-eligible sites
	// never pay for it. The predicates' context is built with it and
	// re-aimed at each site, on a copy of the site's call.
	var (
		probe       *kernel.Kernel
		probeLaunch Launch
		ctx         *eai.Ctx
	)

	// attrKey is the same-object dedup key: one direct fault per
	// (object, attribute) pair.
	type attrKey struct {
		obj  string
		attr eai.Attr
	}
	pr := &planResult{result: res}
	injectedAttr := map[attrKey]bool{}
	for k, site := range res.TotalSites {
		if !include.match(site) {
			continue
		}
		ev := &trace[first[k]]
		at := planned{
			site: site, occur: ev.Call.Occur, point: interpose.PointID(site, ev.Call.Occur),
			kind: ev.Call.Kind, armedIdx: first[k],
		}
		start := len(pr.plans)

		if !opt.OnlyIndirect {
			if ent := eai.EntityForKind(ev.Call.Kind); ent != 0 {
				if probe == nil {
					probe, probeLaunch = world()
					probe.FS.Freeze()
					if probe.Reg != nil {
						probe.Reg.Freeze()
					}
					ctx = &eai.Ctx{Kern: probe, Call: new(interpose.Call), SetCwd: func(string) {}, Cfg: c.Faults}
				}
				*ctx.Call = ev.Call
				ctx.Cwd = callCwd(&ev.Call, probeLaunch)
				obj := objectIdentity(&ev.Call)
				// Plans point into the shared catalog.
				cat := eai.CatalogDirect(ent)
				for fi := range cat {
					f := &cat[fi]
					if !f.Applies(ctx) {
						continue
					}
					key := attrKey{obj, f.Attr}
					if !opt.NoObjectDedup && injectedAttr[key] {
						continue
					}
					injectedAttr[key] = true
					at.dir = f
					pr.plans = append(pr.plans, at)
				}
				at.dir = nil
			}
		}

		if !opt.OnlyDirect && ev.Call.Op.HasInput() {
			sem, ok := c.Semantics[site]
			if !ok {
				sem = eai.InferSemantic(ev.Call.Op, ev.Call.Path)
			}
			cat := eai.CatalogIndirect(sem)
			for fi := range cat {
				at.ind = &cat[fi]
				pr.plans = append(pr.plans, at)
			}
		}

		if len(pr.plans) > start {
			res.PerturbedSites = append(res.PerturbedSites, site)
		}
	}
	return pr, nil
}
