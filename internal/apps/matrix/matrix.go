// Package matrix expands the base application catalog into a
// deterministic grid of campaign variants — the catalog-scale jump the
// suite dispatcher and result cache were built for. Three axes cross:
//
//   - application: every apps.Catalog spec, plus multi-site specs that
//     Compose two or more apps' worlds and traces into one campaign;
//   - engine option: the inject.Options ablation sweeps (NoObjectDedup,
//     OnlyDirect, OnlyIndirect, DirectAfterPoint);
//   - site cut: prefixes of the campaign's interaction-site list at
//     several cut points, so the same program is perturbed under
//     progressively wider surfaces (and DirectAfterPoint is exercised
//     at every cut).
//
// Every cell is one sched.Job whose variant label encodes its axis
// coordinates ("vulnerable+nodedup+s4") and whose Job.Engine carries
// its option sweep. Its campaign Source names only the world and the
// program ("lpr@1/vulnerable"), which all cells of one program share;
// the axis tokens reach both cache fingerprints through the job labels,
// the site selection and the engine options, so each cell still
// fingerprints, caches, shards and reports independently of every
// other. The shared Source is what lets the dispatcher execute a run
// that several cells of one program plan only once (see
// inject.RunKey). SuiteJobs is deterministic: two calls
// (or two machines) produce the identical job list in the identical
// order, which is what makes matrix shard artifacts mergeable.
package matrix

import (
	"sort"
	"strconv"

	"repro/internal/apps"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// Sweep is one engine-option axis value.
type Sweep struct {
	// Token is the variant-label component; empty is the paper's
	// baseline methodology.
	Token string
	// Opt is the engine options the sweep applies.
	Opt inject.Options
}

// Sweeps returns the engine-option axis, baseline first.
func Sweeps() []Sweep {
	return []Sweep{
		{Token: ""},
		{Token: "nodedup", Opt: inject.Options{NoObjectDedup: true}},
		{Token: "direct", Opt: inject.Options{OnlyDirect: true}},
		{Token: "indirect", Opt: inject.Options{OnlyIndirect: true}},
		{Token: "late-direct", Opt: inject.Options{DirectAfterPoint: true}},
		{Token: "late-nodedup", Opt: inject.Options{DirectAfterPoint: true, NoObjectDedup: true}},
	}
}

// cutFractions is the site axis: each fraction of the campaign's site
// list becomes one cut variant, alongside the implicit full surface.
var cutFractions = []float64{0.25, 0.5, 0.75}

// cutsFor returns the distinct site-prefix lengths for an n-site
// campaign, ascending, excluding the full surface (which every spec
// already has as its base cell).
func cutsFor(n int) []int {
	if n < 2 {
		return nil
	}
	seen := map[int]bool{}
	var cuts []int
	for _, f := range cutFractions {
		k := int(f*float64(n) + 0.5)
		if k < 1 {
			k = 1
		}
		if k >= n || seen[k] {
			continue
		}
		seen[k] = true
		cuts = append(cuts, k)
	}
	sort.Ints(cuts)
	return cuts
}

// PairSpecs returns the multi-site compositions the matrix schedules
// alongside the base catalog. The pairs are chosen to cross the
// substrate boundaries the apps exercise — filesystem against
// filesystem, spooler against extractor, network and process input
// against filesystem — and one triple shows composition is n-ary.
func PairSpecs() []apps.Spec {
	lpr := mustSpec("lpr")
	turnin := mustSpec("turnin")
	maildrop := mustSpec("maildrop")
	untar := mustSpec("untar")
	ftpget := mustSpec("ftpget")
	return []apps.Spec{
		Compose(lpr, turnin),
		Compose(maildrop, lpr),
		Compose(turnin, untar),
		Compose(ftpget, maildrop),
		Compose(lpr, turnin, untar),
	}
}

// mustSpec looks up a catalog spec by name.
func mustSpec(name string) apps.Spec {
	s, err := apps.Lookup(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Specs returns every spec the matrix expands: the base catalog plus
// the multi-site compositions.
func Specs() []apps.Spec {
	return append(apps.Catalog(), PairSpecs()...)
}

// SuiteJobs returns the full matrix catalog as a scheduler job list —
// the workload of `eptest -all -matrix`. The base catalog is the
// matrix's (baseline option × full surface) plane, so every
// apps.SuiteJobs job appears here under its unchanged label and
// fingerprint; the remaining cells multiply the suite by an order of
// magnitude.
func SuiteJobs() []sched.Job {
	var jobs []sched.Job
	for _, spec := range Specs() {
		jobs = append(jobs, expand(spec)...)
	}
	return jobs
}

// expand generates one spec's matrix cells in deterministic order:
// sweep-major, then site cut (full surface first), then the two
// program variants.
func expand(spec apps.Spec) []sched.Job {
	sites := siteList(spec)
	cuts := append([]int{0}, cutsFor(len(sites))...)
	var jobs []sched.Job
	for _, sw := range Sweeps() {
		sw := sw
		for _, cut := range cuts {
			var engine *inject.Options
			if sw.Token != "" {
				opt := sw.Opt
				engine = &opt
			}
			jobs = append(jobs,
				cell(spec, "vulnerable", spec.Vulnerable, sw, cut, sites, engine),
				cell(spec, "fixed", spec.Fixed, sw, cut, sites, engine),
			)
		}
	}
	return jobs
}

// cell builds one matrix job.
func cell(spec apps.Spec, prog string, build func() inject.Campaign, sw Sweep, cut int, sites []string, engine *inject.Options) sched.Job {
	variant := prog
	if sw.Token != "" {
		variant += "+" + sw.Token
	}
	if cut > 0 {
		variant += "+s" + strconv.Itoa(cut)
	}
	return sched.Job{
		Name:    spec.Name,
		Variant: variant,
		Engine:  engine,
		Build: func() inject.Campaign {
			c := build()
			if cut > 0 {
				c.Sites = append([]string(nil), sites[:cut]...)
			}
			c.Source = spec.Source + "/" + prog
			return c
		},
	}
}

// siteList returns the ordered site list the cut axis slices: the
// campaign's explicit Sites selection when it has one, otherwise the
// full site surface of the vulnerable variant's clean trace. Cuts are
// therefore defined on the vulnerable program's site order and applied
// to both program variants — the fixed variant's extra validation
// sites only appear in its full-surface cells. A spec whose surface
// cannot be probed (the clean run fails) gets no cut variants.
func siteList(spec apps.Spec) []string {
	c := spec.Vulnerable()
	if len(c.Sites) > 0 {
		return append([]string(nil), c.Sites...)
	}
	sites, err := inject.CleanSites(c)
	if err != nil {
		return nil
	}
	return sites
}
