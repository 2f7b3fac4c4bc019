package ntreg

import (
	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/sim/kernel"
	"repro/internal/sim/proc"
)

// ntPolicy is shared by the module campaigns: the invoker is an
// administrator, the attacker an unprivileged user, and each module's
// legitimate write range is its trusted prefix.
func ntPolicy(trusted ...string) policy.Policy {
	return policy.Policy{
		Invoker:           proc.NewCred(AdminUID, 0),
		Attacker:          proc.NewCred(AttackerUID, AttackerUID),
		TrustedWritePaths: trusted,
	}
}

// FontCleanCampaign perturbs the four font keys the cleanup module
// consumes. The registry value-content fault rewrites each unprotected key
// to name the boot configuration file.
func FontCleanCampaign(prog kernel.Program) inject.Campaign {
	return inject.Campaign{
		Name:   "ntreg-fontclean",
		World:  World(prog),
		Policy: ntPolicy(FontDir),
		Faults: eai.Config{
			Attacker:    proc.NewCred(AttackerUID, AttackerUID),
			WriteTarget: BootConfig,
		},
		Sites: []string{
			"fontclean:regget-cleanup", "fontclean:regget-temp",
			"fontclean:regget-cache", "fontclean:regget-preview",
		},
	}
}

// ScrSaveCampaign perturbs the three launcher keys; the value-content
// fault points each at the attacker's binary.
func ScrSaveCampaign(prog kernel.Program) inject.Campaign {
	return inject.Campaign{
		Name:   "ntreg-scrsave",
		World:  World(prog),
		Policy: ntPolicy(),
		Faults: eai.Config{
			Attacker:    proc.NewCred(AttackerUID, AttackerUID),
			WriteTarget: AttackerBin,
		},
		Sites: []string{
			"scrsave:regget-main", "scrsave:regget-helper", "scrsave:regget-agent",
		},
	}
}

// UpdaterCampaign perturbs the two updater keys toward the boot
// configuration file.
func UpdaterCampaign(prog kernel.Program) inject.Campaign {
	return inject.Campaign{
		Name:   "ntreg-updater",
		World:  World(prog),
		Policy: ntPolicy(SystemDir),
		Faults: eai.Config{
			Attacker:    proc.NewCred(AttackerUID, AttackerUID),
			WriteTarget: BootConfig,
		},
		Sites: []string{"updater:regget-target", "updater:regget-manifest"},
	}
}

// LogondCampaign perturbs the logon module's profile file — the key
// itself is protected, so the perturbable surface is the trustability of
// the directory contents the key names (the paper's second NT finding).
func LogondCampaign(prog kernel.Program) inject.Campaign {
	return inject.Campaign{
		Name:   "ntreg-logond",
		World:  World(prog, "user"),
		Policy: ntPolicy(),
		Faults: eai.Config{
			Attacker: proc.NewCred(AttackerUID, AttackerUID),
			// Content faults substitute an attacker profile whose startup
			// points at the attacker's binary.
			AttackerContent: []byte("startup=" + AttackerBin + "\n"),
			// A read-context symlink on the profile points at the
			// attacker's staged profile.
			ReadTargetOverrides: map[string]string{
				ProfileDir + "/user.prof": "/users/mallory/evil.prof",
			},
		},
		Sites: []string{"logond:open-profile", "logond:read-profile"},
	}
}

// ModuleCampaigns returns the three unprotected-key campaigns in report
// order, built over the given variant selector (Vulnerable or Fixed).
func ModuleCampaigns(fixed bool) []inject.Campaign {
	if fixed {
		return []inject.Campaign{
			FontCleanCampaign(FontCleanFixed),
			ScrSaveCampaign(ScrSaveFixed),
			UpdaterCampaign(UpdaterFixed),
		}
	}
	return []inject.Campaign{
		FontCleanCampaign(FontClean),
		ScrSaveCampaign(ScrSave),
		UpdaterCampaign(Updater),
	}
}

// Survey is the Section 4.2 result: the unprotected-key inventory and
// which keys were exploited.
type Survey struct {
	// UnprotectedKeys is every key writable by Everyone (the static-
	// analysis inventory).
	UnprotectedKeys []string
	// ExploitedKeys are consumed keys whose perturbation produced a
	// security violation.
	ExploitedKeys []string
	// SuspectedKeys are unprotected keys with no analysed consumer.
	SuspectedKeys []string
	// Results holds the per-module campaign results.
	Results []*inject.Result
}

// RunSurvey executes the three module campaigns and assembles the
// Section 4.2 numbers: 29 unprotected keys, 9 exploited, 20 suspected.
func RunSurvey(fixed bool) (*Survey, error) {
	k, _ := World(func(p *kernel.Proc) int { return 0 })()
	s := &Survey{UnprotectedKeys: k.Reg.UnprotectedKeys()}

	exploited := map[string]bool{}
	for _, c := range ModuleCampaigns(fixed) {
		res, err := inject.Run(c)
		if err != nil {
			return nil, err
		}
		s.Results = append(s.Results, res)
		for _, in := range res.Violations() {
			if in.Class != eai.ClassDirect || in.Attr != eai.AttrRegValueContent {
				continue
			}
			// The perturbed key is the object path of the regget site's
			// first clean-trace event.
			for _, ev := range res.CleanTrace {
				if ev.Call.Site == in.Site {
					exploited[ev.Call.Path] = true
					break
				}
			}
		}
	}
	consumed := map[string]bool{}
	for _, key := range append(append(append([]string{}, FontCleanKeys...), ScrSaveKeys...), UpdaterKeys...) {
		consumed[key] = true
	}
	for _, key := range s.UnprotectedKeys {
		switch {
		case exploited[key]:
			s.ExploitedKeys = append(s.ExploitedKeys, key)
		case !consumed[key]:
			s.SuspectedKeys = append(s.SuspectedKeys, key)
		}
	}
	return s, nil
}
