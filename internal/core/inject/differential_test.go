package inject_test

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/eai"
	"repro/internal/core/findings"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/core/sched"
	"repro/internal/core/store"
	"repro/internal/sim/kernel"
	"repro/internal/sim/proc"
)

// leakyCat is a set-UID-root utility that prints a root-only file to its
// invoker. Its clean run already leaks; an indirect fault that rewrites
// the bytes it reads moves the verdict of the armed event itself, the
// boundary where the seeded oracle hands over from replayed prefix
// verdicts to the live walk. No catalog campaign has such an event.
func leakyCat(p *kernel.Proc) int {
	data, err := p.ReadFile("cat", "/etc/shadow")
	if err != nil {
		return 1
	}
	p.Printf("%s", data)
	return 0
}

// leakyCatJob wraps the fixture as a suite job. The read site is
// annotated as a path list so its Table 5 faults replace the content
// outright instead of extending it.
func leakyCatJob() sched.Job {
	return sched.Job{Name: "leaky-cat", Variant: "fixture", Build: func() inject.Campaign {
		return inject.Campaign{
			Name: "leaky-cat",
			World: func() (*kernel.Kernel, inject.Launch) {
				k := kernel.New()
				k.Users.Add(proc.User{Name: "alice", UID: 100, GID: 100})
				k.Users.Add(proc.User{Name: "mallory", UID: 666, GID: 666})
				if err := k.FS.MkdirAll("/", "/etc", 0o755, 0, 0); err != nil {
					panic(err)
				}
				if err := k.FS.WriteFile("/etc/shadow", []byte("root:$1$HASH$:10000:\n"), 0o600, 0, 0); err != nil {
					panic(err)
				}
				return k, inject.Launch{
					Cred: proc.Cred{UID: 100, GID: 100, EUID: 0, EGID: 0}, // set-UID root
					Env:  proc.NewEnv("PATH", "/usr/bin"),
					Cwd:  "/",
					Args: []string{"cat"},
					Prog: leakyCat,
				}
			},
			Policy:    policy.Policy{Invoker: proc.NewCred(100, 100), Attacker: proc.NewCred(666, 666)},
			Faults:    eai.Config{Attacker: proc.NewCred(666, 666)},
			Semantics: map[string]eai.Semantic{"cat:read": eai.SemPathList},
		}
	}}
}

// jobOptions resolves a job's engine options the way the suite
// dispatcher does under default suite options.
func jobOptions(j sched.Job) inject.Options {
	if j.Engine != nil {
		return *j.Engine
	}
	return inject.Options{}
}

// matchReference runs c through the engine and the reference engine and
// fails on any byte of drift in the canonical result encoding or in the
// finding records (IDs included). It returns the number of runs.
func matchReference(t *testing.T, app, variant string, c inject.Campaign, opt inject.Options) int {
	t.Helper()
	label := app + "/" + variant
	got, gotErr := inject.RunWith(c, opt)
	want, wantErr := inject.ReferenceRun(c, opt)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: engine error %v, reference error %v", label, gotErr, wantErr)
		}
		return 0
	}
	gotRes, err := store.EncodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := store.EncodeResult(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRes, wantRes) {
		t.Errorf("%s (%+v): engine result drifted from the reference\n  engine:    %s\n  reference: %s", label, opt, gotRes, wantRes)
	}
	gotF, err := findings.FromResult(app, variant, got).Encode()
	if err != nil {
		t.Fatal(err)
	}
	wantF, err := findings.FromResult(app, variant, want).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotF, wantF) {
		t.Errorf("%s (%+v): engine findings drifted from the reference\n  engine:    %s\n  reference: %s", label, opt, gotF, wantF)
	}
	return len(got.Injections)
}

// TestEngineMatchesReference runs every base-catalog and matrix job, plus
// the leaky-cat fixture, through both engines: forked worlds, pooled
// trace buffers and the prefix-seeded oracle must never move a result or
// finding byte.
func TestEngineMatchesReference(t *testing.T) {
	jobs := append(apps.SuiteJobs(), matrix.SuiteJobs()...)
	runs := 0
	for _, j := range jobs {
		runs += matchReference(t, j.Name, j.Variant, j.Build(), jobOptions(j))
	}
	t.Logf("%d catalog jobs, %d injection runs cross-checked", len(jobs), runs)
	fx := leakyCatJob()
	if n := matchReference(t, fx.Name, fx.Variant, fx.Build(), inject.Options{}); n == 0 {
		t.Fatal("leaky-cat fixture planned zero runs")
	}
}

// FuzzEngineVsReference cross-checks the engine against the reference
// over arbitrary base-catalog campaigns (and the leaky-cat fixture),
// engine options and site selections. sites is a mask over the
// campaign's clean-run sites; with prefix set, the lowest selected site
// is replaced by a trailing-"*" pattern over the first half of its name.
func FuzzEngineVsReference(f *testing.F) {
	jobs := append(apps.SuiteJobs(), leakyCatJob())
	f.Add(uint8(0), uint8(0), uint64(0), false)
	f.Add(uint8(1), uint8(0b0001), uint64(0b1011), false)
	f.Add(uint8(4), uint8(0b1000), ^uint64(0), true)
	f.Add(uint8(7), uint8(0b0110), uint64(0b0100), false)
	f.Add(uint8(len(jobs)-1), uint8(0), ^uint64(0), false)
	f.Fuzz(func(t *testing.T, idx, opts uint8, sites uint64, prefix bool) {
		j := jobs[int(idx)%len(jobs)]
		c := j.Build()
		opt := inject.Options{
			NoObjectDedup:    opts&1 != 0,
			OnlyDirect:       opts&2 != 0,
			OnlyIndirect:     opts&4 != 0,
			DirectAfterPoint: opts&8 != 0,
		}
		clean, err := inject.CleanSites(c)
		if err != nil {
			t.Fatal(err)
		}
		c.Sites = nil
		for i, s := range clean {
			if i < 64 && sites&(1<<i) != 0 {
				if prefix && len(c.Sites) == 0 {
					s = s[:len(s)/2] + "*"
				}
				c.Sites = append(c.Sites, s)
			}
		}
		matchReference(t, j.Name, j.Variant, c, opt)
	})
}
