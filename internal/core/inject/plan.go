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

// Plan enumerates the injections a campaign would perform: the clean run,
// the interaction points, and each point's applicable fault list. It is
// the dry-run counterpart of Run and shares its planning logic.
func Plan(c Campaign) ([]PlannedInjection, error) {
	return PlanWith(c, Options{})
}

// PlanWith is Plan under explicit engine options.
func PlanWith(c Campaign, opt Options) ([]PlannedInjection, error) {
	plan, err := PrepareWith(c, opt)
	if err != nil {
		return nil, err
	}
	out := make([]PlannedInjection, plan.NumRuns())
	for i := range out {
		out[i] = plan.Planned(i)
	}
	return out, nil
}

// EquivalenceGroup is a set of interaction sites that touch the same
// environment object with the same class of operation — the paper's
// future-work reduction: "exploit static analysis to further reduce the
// number of fault injection locations by finding the equivalence
// relationship among those locations". Over a recorded trace the
// relationship is computable exactly.
type EquivalenceGroup struct {
	// Object is the shared environment object.
	Object string
	// Kind is the shared entity kind.
	Kind interpose.ObjectKind
	// Sites are the member call sites, in first-hit order.
	Sites []string
}

// String renders the group.
func (g EquivalenceGroup) String() string {
	return fmt.Sprintf("%s %s: %v", g.Kind, g.Object, g.Sites)
}

// EquivalenceGroups partitions the trace's sites by perturbed object.
// Sites in one group share their direct-fault lists, so injecting at one
// member covers the group — the reduction the engine's same-object dedup
// realises dynamically.
func EquivalenceGroups(trace []interpose.Event) []EquivalenceGroup {
	type key struct {
		obj  string
		kind interpose.ObjectKind
	}
	seenSite := map[string]bool{}
	groups := map[key]*EquivalenceGroup{}
	var order []key
	for i := range trace {
		ev := &trace[i]
		if eai.EntityForKind(ev.Call.Kind) == 0 {
			continue
		}
		obj := ev.ResolvedPath
		if obj == "" {
			obj = ev.Call.Path
		}
		k := key{obj: obj, kind: ev.Call.Kind}
		g, ok := groups[k]
		if !ok {
			g = &EquivalenceGroup{Object: k.obj, Kind: k.kind}
			groups[k] = g
			order = append(order, k)
		}
		if !seenSite[ev.Call.Site] {
			seenSite[ev.Call.Site] = true
			g.Sites = append(g.Sites, ev.Call.Site)
		}
	}
	out := make([]EquivalenceGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	return out
}

// ReductionFactor reports how many fault-injection locations the
// equivalence analysis saves: total member sites over group count.
func ReductionFactor(groups []EquivalenceGroup) float64 {
	sites := 0
	for _, g := range groups {
		sites += len(g.Sites)
	}
	if len(groups) == 0 {
		return 1
	}
	return float64(sites) / float64(len(groups))
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
	p := k.NewProc(l.Cred, l.Env.Clone(), l.Cwd, l.Args...)
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
func newSiteFilter(sites []string) *siteFilter {
	f := &siteFilter{exact: map[string]bool{}, empty: len(sites) == 0}
	for _, s := range sites {
		if n := len(s); n > 0 && s[n-1] == '*' {
			f.prefixes = append(f.prefixes, s[:n-1])
			continue
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

// planResult is the internal planning outcome shared by Plan and Run.
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

	firstEvent := map[string]*interpose.Event{}
	firstIdx := map[string]int{}
	var siteOrder []string
	for i := range trace {
		s := trace[i].Call.Site
		if _, ok := firstEvent[s]; !ok {
			firstEvent[s] = &trace[i]
			firstIdx[s] = i
			siteOrder = append(siteOrder, s)
		}
	}

	// Applies predicates are read-only (they probe object existence and
	// attributes), so one probe world serves every site. Its filesystem
	// is frozen as a tripwire: a (hypothetically) mutating predicate
	// panics loudly instead of silently leaking state into later sites'
	// probes. Built lazily — campaigns with no direct-eligible sites
	// never pay for it.
	var (
		probe       *kernel.Kernel
		probeLaunch Launch
	)

	pr := &planResult{result: res}
	perturbed := map[string]bool{}
	injectedAttr := map[string]bool{}
	for _, site := range siteOrder {
		if !include.match(site) {
			continue
		}
		ev := firstEvent[site]
		var sitePlans []planned

		if !opt.OnlyIndirect {
			if ent := eai.EntityForKind(ev.Call.Kind); ent != 0 {
				if probe == nil {
					probe, probeLaunch = world()
					probe.FS.Freeze()
					if probe.Reg != nil {
						probe.Reg.Freeze()
					}
				}
				call := ev.Call
				ctx := &eai.Ctx{
					Kern:   probe,
					Call:   &call,
					Cwd:    callCwd(&ev.Call, probeLaunch),
					SetCwd: func(string) {},
					Cfg:    c.Faults,
				}
				obj := objectIdentity(&ev.Call)
				for _, f := range eai.CatalogDirect(ent) {
					f := f
					if !f.Applies(ctx) {
						continue
					}
					key := obj + "|" + f.Attr.String()
					if !opt.NoObjectDedup && injectedAttr[key] {
						continue
					}
					injectedAttr[key] = true
					sitePlans = append(sitePlans, planned{site: site, occur: ev.Call.Occur, kind: ev.Call.Kind, armedIdx: firstIdx[site], dir: &f})
				}
			}
		}

		if !opt.OnlyDirect && ev.Call.Op.HasInput() {
			sem, ok := c.Semantics[site]
			if !ok {
				sem = eai.InferSemantic(ev.Call.Op, ev.Call.Path)
			}
			for _, f := range eai.CatalogIndirect(sem) {
				f := f
				sitePlans = append(sitePlans, planned{site: site, occur: ev.Call.Occur, kind: ev.Call.Kind, armedIdx: firstIdx[site], ind: &f})
			}
		}

		if len(sitePlans) > 0 {
			perturbed[site] = true
			pr.plans = append(pr.plans, sitePlans...)
		}
	}
	for _, site := range siteOrder {
		if perturbed[site] {
			res.PerturbedSites = append(res.PerturbedSites, site)
		}
	}
	return pr, nil
}
