package ntreg

import (
	"strings"
	"testing"

	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/sim/kernel"
)

func runClean(t *testing.T, prog kernel.Program, args ...string) (*kernel.Kernel, *kernel.Proc, int) {
	t.Helper()
	k, l := World(prog, args...)()
	p := k.NewProc(l.Cred, l.Env, l.Cwd, l.Args...)
	exit, crash := k.Run(p, l.Prog)
	if crash != nil {
		t.Fatalf("clean run crashed: %v", crash)
	}
	return k, p, exit
}

func TestFontCleanCleanRun(t *testing.T) {
	t.Parallel()
	k, _, exit := runClean(t, FontClean)
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	for _, f := range []string{"old.fon", "tmp1.fon", "cache.fon", "preview.fon"} {
		if k.FS.Exists(FontDir + "/" + f) {
			t.Errorf("%s not cleaned", f)
		}
	}
	if !k.FS.Exists(BootConfig) {
		t.Error("boot config gone on a clean run")
	}
}

func TestScrSaveCleanRun(t *testing.T) {
	t.Parallel()
	_, p, exit := runClean(t, ScrSave)
	if exit != 0 {
		t.Fatalf("exit = %d, stderr = %s", exit, p.Stderr.String())
	}
}

func TestUpdaterCleanRun(t *testing.T) {
	t.Parallel()
	k, _, exit := runClean(t, Updater)
	if exit != 0 {
		t.Fatal("updater failed")
	}
	data, err := k.FS.ReadFile(SystemDir + "/kernel.dll")
	if err != nil || !strings.Contains(string(data), "v2") {
		t.Errorf("kernel.dll = %q, %v", data, err)
	}
}

func TestLogondCleanRun(t *testing.T) {
	t.Parallel()
	_, p, exit := runClean(t, Logond, "user")
	if exit != 0 {
		t.Fatalf("exit = %d, stderr = %s", exit, p.Stderr.String())
	}
	if !strings.Contains(p.Stdout.String(), "logon complete") {
		t.Errorf("stdout = %q", p.Stdout.String())
	}
}

func TestFixedModulesCleanRuns(t *testing.T) {
	t.Parallel()
	for name, prog := range map[string]kernel.Program{
		"fontclean": FontCleanFixed,
		"scrsave":   ScrSaveFixed,
		"updater":   UpdaterFixed,
	} {
		if _, p, exit := runClean(t, prog); exit != 0 {
			t.Errorf("%s fixed clean run exit = %d, stderr = %s", name, exit, p.Stderr.String())
		}
	}
	if _, p, exit := runClean(t, LogondFixed, "user"); exit != 0 {
		t.Errorf("logond fixed exit = %d, stderr = %s", exit, p.Stderr.String())
	}
}

// TestSection42Survey pins the paper's numbers: 29 unprotected keys, 9
// exploited, 20 suspected.
func TestSection42Survey(t *testing.T) {
	t.Parallel()
	s, err := RunSurvey(false)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.UnprotectedKeys); got != 29 {
		t.Errorf("unprotected keys = %d, want 29", got)
	}
	if got := len(s.ExploitedKeys); got != 9 {
		t.Errorf("exploited keys = %d, want 9: %v", got, s.ExploitedKeys)
		for _, res := range s.Results {
			for _, in := range res.Violations() {
				t.Logf("  %s %s -> %v", in.Point, in.FaultID, in.Violations)
			}
		}
	}
	if got := len(s.SuspectedKeys); got != 20 {
		t.Errorf("suspected keys = %d, want 20", got)
	}
}

// TestFontDeleteFinding reproduces the narrated font-key exploit: the key
// is rewritten to name a security-critical file, and the administrator-run
// module deletes it.
func TestFontDeleteFinding(t *testing.T) {
	t.Parallel()
	res, err := inject.Run(FontCleanCampaign(FontClean))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range res.Violations() {
		for _, v := range in.Violations {
			if v.Kind == policy.KindIntegrity && v.Object == BootConfig {
				found = true
			}
		}
	}
	if !found {
		t.Error("no boot-config deletion via rewritten font key")
	}
}

// TestScrSaveExecFinding: the launcher keys hand the attacker privileged
// execution.
func TestScrSaveExecFinding(t *testing.T) {
	t.Parallel()
	res, err := inject.Run(ScrSaveCampaign(ScrSave))
	if err != nil {
		t.Fatal(err)
	}
	execs := 0
	for _, in := range res.Violations() {
		for _, v := range in.Violations {
			if v.Kind == policy.KindUntrustedExec && v.Object == AttackerBin {
				execs++
			}
		}
	}
	if execs != 3 {
		t.Errorf("untrusted-exec violations = %d, want 3 (one per launcher key)", execs)
	}
}

// TestLogondTrustabilityFinding reproduces the logon-module exploit: the
// profile the module trusts is swapped for attacker content and the
// attacker's startup program runs privileged.
func TestLogondTrustabilityFinding(t *testing.T) {
	t.Parallel()
	res, err := inject.Run(LogondCampaign(Logond))
	if err != nil {
		t.Fatal(err)
	}
	byAttr := map[eai.Attr]bool{}
	for _, in := range res.Violations() {
		for _, v := range in.Violations {
			if v.Kind == policy.KindUntrustedExec {
				byAttr[in.Attr] = true
			}
		}
	}
	if !byAttr[eai.AttrContentInvariance] {
		t.Error("profile content perturbation did not reach untrusted exec")
	}
	if !byAttr[eai.AttrSymlink] {
		t.Error("profile symlink perturbation did not reach untrusted exec")
	}
}

// TestProtectedKeyNotPerturbable: the logon key itself is protected, so
// the registry value-content fault must not be planned for it.
func TestProtectedKeyNotPerturbable(t *testing.T) {
	t.Parallel()
	c := LogondCampaign(Logond)
	c.Sites = []string{"logond:regget-profiledir"}
	res, err := inject.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Injections {
		if in.Class == eai.ClassDirect {
			t.Errorf("direct fault %s planned for protected key", in.FaultID)
		}
	}
}

// TestFixedSurveyToleratesAll: with the repaired modules the same
// perturbations yield zero exploited keys.
func TestFixedSurveyToleratesAll(t *testing.T) {
	t.Parallel()
	s, err := RunSurvey(true)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.ExploitedKeys); got != 0 {
		t.Errorf("fixed modules: exploited keys = %d, want 0: %v", got, s.ExploitedKeys)
	}
	if got := len(s.UnprotectedKeys); got != 29 {
		t.Errorf("unprotected inventory unchanged by fixes: %d", got)
	}
}

// TestFixedLogondSurvives: the repaired logon module tolerates the same
// campaign.
func TestFixedLogondSurvives(t *testing.T) {
	t.Parallel()
	res, err := inject.Run(LogondCampaign(LogondFixed))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Injections {
		if !in.Tolerated() {
			t.Errorf("fixed logond violated under %s: %v", in.FaultID, in.Violations)
		}
	}
}
