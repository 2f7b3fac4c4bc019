// Package apps registers every target application's fault-injection
// campaign under a stable name, for the CLIs and examples.
package apps

import (
	"fmt"
	"sort"

	"repro/internal/apps/ftpget"
	"repro/internal/apps/lpr"
	"repro/internal/apps/maildrop"
	"repro/internal/apps/ntreg"
	"repro/internal/apps/turnin"
	"repro/internal/apps/untar"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// Spec is one selectable campaign.
type Spec struct {
	Name string
	// Paper locates the campaign in the paper.
	Paper string
	// Source is the campaign's versioned source identity — the app
	// package plus its SourceVersion — which SuiteJobs stamps onto the
	// built campaigns (suffixed with the variant) so the result store
	// can replay them without re-executing even the clean run.
	Source string
	// Vulnerable and Fixed build the two variants.
	Vulnerable func() inject.Campaign
	Fixed      func() inject.Campaign
}

// Catalog returns every registered campaign, sorted by name.
func Catalog() []Spec {
	specs := []Spec{
		{
			Name:       "lpr",
			Source:     "lpr@" + lpr.SourceVersion,
			Paper:      "Section 3.4 (BSD lpr walk-through)",
			Vulnerable: func() inject.Campaign { return lpr.Campaign(lpr.Vulnerable) },
			Fixed:      func() inject.Campaign { return lpr.Campaign(lpr.Fixed) },
		},
		{
			Name:       "lpr-create-site",
			Source:     "lpr-create-site@" + lpr.SourceVersion,
			Paper:      "Section 3.4 (create interaction point only)",
			Vulnerable: func() inject.Campaign { return lpr.CreateSiteCampaign(lpr.Vulnerable) },
			Fixed:      func() inject.Campaign { return lpr.CreateSiteCampaign(lpr.Fixed) },
		},
		{
			Name:       "turnin",
			Source:     "turnin@" + turnin.SourceVersion,
			Paper:      "Section 4.1 (Purdue turnin: 8 places, 41 perturbations, 9 violations)",
			Vulnerable: func() inject.Campaign { return turnin.Campaign(turnin.Vulnerable) },
			Fixed:      func() inject.Campaign { return turnin.Campaign(turnin.Fixed) },
		},
		{
			Name:       "ntreg-fontclean",
			Source:     "ntreg-fontclean@" + ntreg.SourceVersion,
			Paper:      "Section 4.2 (font-key file deletion)",
			Vulnerable: func() inject.Campaign { return ntreg.FontCleanCampaign(ntreg.FontClean) },
			Fixed:      func() inject.Campaign { return ntreg.FontCleanCampaign(ntreg.FontCleanFixed) },
		},
		{
			Name:       "ntreg-scrsave",
			Source:     "ntreg-scrsave@" + ntreg.SourceVersion,
			Paper:      "Section 4.2 (launcher keys)",
			Vulnerable: func() inject.Campaign { return ntreg.ScrSaveCampaign(ntreg.ScrSave) },
			Fixed:      func() inject.Campaign { return ntreg.ScrSaveCampaign(ntreg.ScrSaveFixed) },
		},
		{
			Name:       "ntreg-updater",
			Source:     "ntreg-updater@" + ntreg.SourceVersion,
			Paper:      "Section 4.2 (updater keys)",
			Vulnerable: func() inject.Campaign { return ntreg.UpdaterCampaign(ntreg.Updater) },
			Fixed:      func() inject.Campaign { return ntreg.UpdaterCampaign(ntreg.UpdaterFixed) },
		},
		{
			Name:       "ntreg-logond",
			Source:     "ntreg-logond@" + ntreg.SourceVersion,
			Paper:      "Section 4.2 (logon profile trustability)",
			Vulnerable: func() inject.Campaign { return ntreg.LogondCampaign(ntreg.Logond) },
			Fixed:      func() inject.Campaign { return ntreg.LogondCampaign(ntreg.LogondFixed) },
		},
		{
			Name:       "maildrop",
			Source:     "maildrop@" + maildrop.SourceVersion,
			Paper:      "Table 5 environment-variable rows (PATH, permission mask)",
			Vulnerable: func() inject.Campaign { return maildrop.Campaign(maildrop.Vulnerable) },
			Fixed:      func() inject.Campaign { return maildrop.Campaign(maildrop.Fixed) },
		},
		{
			Name:       "ftpget",
			Source:     "ftpget@" + ftpget.SourceVersion,
			Paper:      "Table 6 network entity rows",
			Vulnerable: func() inject.Campaign { return ftpget.Campaign(ftpget.Vulnerable) },
			Fixed:      func() inject.Campaign { return ftpget.Campaign(ftpget.Fixed) },
		},
		{
			Name:       "untar",
			Source:     "untar@" + untar.SourceVersion,
			Paper:      "Section 4.1 (extraction side of the \"../\" submission attack)",
			Vulnerable: func() inject.Campaign { return untar.Campaign(untar.Vulnerable) },
			Fixed:      func() inject.Campaign { return untar.Campaign(untar.Fixed) },
		},
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// Lookup finds a campaign by name.
func Lookup(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("apps: unknown campaign %q", name)
}

// SuiteJobs returns the scheduler job list for the whole catalog: every
// campaign in both variants, in catalog order — the workload of
// `eptest -all` and the suite benchmarks.
func SuiteJobs() []sched.Job {
	var jobs []sched.Job
	for _, spec := range Catalog() {
		jobs = append(jobs,
			sched.Job{Name: spec.Name, Variant: "vulnerable", Build: sourced(spec, "vulnerable", spec.Vulnerable)},
			sched.Job{Name: spec.Name, Variant: "fixed", Build: sourced(spec, "fixed", spec.Fixed)},
		)
	}
	return jobs
}

// sourced wraps a campaign builder so the built campaign carries its
// versioned source identity, enabling source-level cache replays that
// skip the clean run (see inject.SourceFingerprint).
func sourced(spec Spec, variant string, build func() inject.Campaign) func() inject.Campaign {
	return func() inject.Campaign {
		c := build()
		c.Source = spec.Source + "/" + variant
		return c
	}
}
