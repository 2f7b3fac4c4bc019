package inject_test

import (
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// suiteJobs returns every base and matrix job, in catalog order.
func suiteJobs() []sched.Job {
	return append(apps.SuiteJobs(), matrix.SuiteJobs()...)
}

// jobFingerprints computes a suite job's source and plan fingerprints
// the way the dispatcher does: under jobOptions, with its name and
// variant as the labels.
func jobFingerprints(t *testing.T, job sched.Job) (src, plan string) {
	t.Helper()
	opt := jobOptions(job)
	c := job.Build()
	src, ok := inject.SourceFingerprint(c, opt, job.Name, job.Variant)
	if !ok {
		t.Fatalf("%s declares no Source", job.Label())
	}
	p, err := inject.PrepareWith(c, opt)
	if err != nil {
		t.Fatalf("prepare %s: %v", job.Label(), err)
	}
	return src, p.Fingerprint(job.Name, job.Variant)
}

// TestFingerprintGolden pins the content addresses of a few suite jobs
// byte for byte: a result store written by any earlier binary of the
// same EngineVersion must keep replaying, so a rewrite of the hasher
// may change how the digest is computed but never what it is. The jobs
// cover a base campaign, one with semantic annotations and read-target
// overrides, a two-program composite, and matrix cells with a site cut
// and swept engine options. docs/STORE.md spells out the byte stream,
// so these values can be reproduced outside Go.
func TestFingerprintGolden(t *testing.T) {
	t.Parallel()
	golden := []struct{ label, src, plan string }{
		{"lpr/vulnerable",
			"f3a461976cc8a5f6073296eef447fee41d7e08b60f8c770722f18fa1fdf90863",
			"cde1635e2aea546469fa85a0407b10d7a8d325ef843ddb9ce798f02f794fb2fe"},
		{"turnin/vulnerable",
			"c1faddc47c9518f5332f6471cfb3d091118b06256ab608ea8bbe64d6c2cf1151",
			"b8473c712851f9cb0f8d1d0d504750ae801cdfe3bba87aba660a95eb803b2e58"},
		{"lpr+turnin/fixed",
			"ad534cef0a3298ec1c02566999861efbfcf74c36f9e3dd7ad83c823d00a7491c",
			"d6e388d6d9f533f9924f7b4a7c660425a316907216b5db879f8abe4e9695521d"},
		{"lpr/vulnerable+nodedup+s3",
			"767cd774e6b544dbee48ffe0f5d550398f6b94e10b78654e12277ac9f3b7871a",
			"ea899a82e661bca91183d076556d1edb8f0aa8120613cdff3b077d5119fdeac5"},
		{"ftpget/fixed+late-nodedup+s4",
			"b73fb138ff2d6434316888f7996536d7909a881fb79ce246ecbb29041c636e07",
			"ce223c9251668b1e9a7c7532dd9391b409e059dd23e3ade965f5144d3ad1ac93"},
	}
	byLabel := map[string]sched.Job{}
	for _, j := range suiteJobs() {
		byLabel[j.Label()] = j
	}
	for _, g := range golden {
		job, ok := byLabel[g.label]
		if !ok {
			t.Errorf("no suite job %q", g.label)
			continue
		}
		src, plan := jobFingerprints(t, job)
		if src != g.src {
			t.Errorf("%s: source fingerprint %s, pinned %s", g.label, src, g.src)
		}
		if plan != g.plan {
			t.Errorf("%s: plan fingerprint %s, pinned %s", g.label, plan, g.plan)
		}
	}
}

// TestFingerprintMatchesReference checks the production hasher against
// the io.Writer reference on every base and matrix job, so no address a
// store already holds moves.
func TestFingerprintMatchesReference(t *testing.T) {
	t.Parallel()
	jobs := suiteJobs()
	if len(jobs) < 620 {
		t.Fatalf("%d suite jobs, want at least 620", len(jobs))
	}
	for _, job := range jobs {
		opt := jobOptions(job)
		c := job.Build()
		src, _ := inject.SourceFingerprint(c, opt, job.Name, job.Variant)
		if want, _ := inject.ReferenceSourceFingerprint(c, opt, job.Name, job.Variant); src != want {
			t.Errorf("%s: source fingerprint %s, reference %s", job.Label(), src, want)
		}
		p, err := inject.PrepareWith(c, opt)
		if err != nil {
			t.Fatalf("prepare %s: %v", job.Label(), err)
		}
		if got, want := p.Fingerprint(job.Name, job.Variant), inject.ReferenceFingerprint(p, job.Name, job.Variant); got != want {
			t.Errorf("%s: plan fingerprint %s, reference %s", job.Label(), got, want)
		}
	}
}

// TestFingerprintConcurrent computes fingerprints of different plans
// from several goroutines at once, as the dispatcher's workers do: the
// pooled encoders must never mix two streams.
func TestFingerprintConcurrent(t *testing.T) {
	t.Parallel()
	jobs := suiteJobs()[:40]
	want := make([]string, len(jobs))
	plans := make([]*inject.ExecPlan, len(jobs))
	for i, job := range jobs {
		p, err := inject.PrepareWith(job.Build(), inject.Options{})
		if err != nil {
			t.Fatalf("prepare %s: %v", job.Label(), err)
		}
		plans[i], want[i] = p, p.Fingerprint(job.Name, job.Variant)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i := range plans {
					k := (i + g*7) % len(plans)
					if got := plans[k].Fingerprint(jobs[k].Name, jobs[k].Variant); got != want[k] {
						t.Errorf("%s: concurrent fingerprint %s, serial %s", jobs[k].Label(), got, want[k])
					}
				}
			}
		}()
	}
	wg.Wait()
}
