package matrix_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// TestSuiteJobsDeterministic pins the generator's core contract: two
// independent calls emit the identical job list in the identical
// order — label for label — which is what makes matrix shard
// artifacts produced on different machines mergeable.
func TestSuiteJobsDeterministic(t *testing.T) {
	t.Parallel()
	a, b := matrix.SuiteJobs(), matrix.SuiteJobs()
	if len(a) != len(b) {
		t.Fatalf("job counts diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Label() != b[i].Label() {
			t.Fatalf("job %d diverges: %q vs %q", i, a[i].Label(), b[i].Label())
		}
	}
}

// TestSuiteJobsScale verifies the acceptance floor: the matrix emits
// at least ten times the base catalog's job count, with unique labels.
func TestSuiteJobsScale(t *testing.T) {
	t.Parallel()
	base := apps.SuiteJobs()
	jobs := matrix.SuiteJobs()
	if len(jobs) < 10*len(base) {
		t.Fatalf("matrix emits %d jobs, want >= 10x base (%d)", len(jobs), 10*len(base))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Label()] {
			t.Fatalf("duplicate matrix label %q", j.Label())
		}
		seen[j.Label()] = true
	}
	// The base catalog is the matrix's baseline plane: every base job
	// appears under its unchanged label.
	for _, j := range base {
		if !seen[j.Label()] {
			t.Errorf("base job %q missing from matrix", j.Label())
		}
	}
}

// TestMatrixCellIdentity verifies each cell carries its own campaign
// identity: a distinct source fingerprint (the cache domain), a Source
// shared exactly with the cells of the same spec and program (the
// world the dispatcher shares runs within), and engine options
// matching its variant tokens.
func TestMatrixCellIdentity(t *testing.T) {
	t.Parallel()
	fingerprints := map[string]string{}
	sourceOf := map[string]string{}  // spec/program -> Source
	programOf := map[string]string{} // Source -> spec/program
	for _, j := range matrix.SuiteJobs() {
		c := j.Build()
		if c.Source == "" {
			t.Fatalf("cell %q has no Source", j.Label())
		}
		opt := inject.Options{}
		if j.Engine != nil {
			opt = *j.Engine
		}

		fp, _ := inject.SourceFingerprint(c, opt, j.Name, j.Variant)
		if prev, dup := fingerprints[fp]; dup {
			t.Fatalf("cells %q and %q share source fingerprint %s", prev, j.Label(), fp)
		}
		fingerprints[fp] = j.Label()

		program := j.Name + "/" + strings.Split(j.Variant, "+")[0]
		if prev, ok := sourceOf[program]; ok && prev != c.Source {
			t.Errorf("cell %q has Source %q, other %s cells have %q", j.Label(), c.Source, program, prev)
		}
		sourceOf[program] = c.Source
		if prev, ok := programOf[c.Source]; ok && prev != program {
			t.Errorf("cell %q (%s) shares Source %q with %s cells", j.Label(), program, c.Source, prev)
		}
		programOf[c.Source] = program
		tokens := map[string]bool{}
		for _, tok := range strings.Split(j.Variant, "+")[1:] {
			tokens[tok] = true
		}
		if want := tokens["nodedup"] || tokens["late-nodedup"]; want != opt.NoObjectDedup {
			t.Errorf("cell %q: NoObjectDedup = %v, want %v", j.Label(), opt.NoObjectDedup, want)
		}
		if tokens["direct"] != opt.OnlyDirect {
			t.Errorf("cell %q: OnlyDirect = %v", j.Label(), opt.OnlyDirect)
		}
		if tokens["indirect"] != opt.OnlyIndirect {
			t.Errorf("cell %q: OnlyIndirect = %v", j.Label(), opt.OnlyIndirect)
		}
		if want := tokens["late-direct"] || tokens["late-nodedup"]; want != opt.DirectAfterPoint {
			t.Errorf("cell %q: DirectAfterPoint = %v, want %v", j.Label(), opt.DirectAfterPoint, want)
		}
	}
}

// TestWorldKeyMatchesSource pins the label convention the coordinator
// claims by: sched.WorldKey over the labels partitions the jobs into
// exactly the groups their built campaigns' Source declares, for the
// base catalog and the matrix.
func TestWorldKeyMatchesSource(t *testing.T) {
	t.Parallel()
	for name, jobs := range map[string][]sched.Job{"base": apps.SuiteJobs(), "matrix": matrix.SuiteJobs()} {
		sourceOf := map[string]string{} // world key -> Source
		keyOf := map[string]string{}    // Source -> world key
		for _, j := range jobs {
			key, src := sched.WorldKey(j.Label()), j.Build().Source
			if src == "" {
				t.Fatalf("%s: job %q has no Source", name, j.Label())
			}
			if prev, ok := sourceOf[key]; ok && prev != src {
				t.Errorf("%s: world key %q holds Sources %q and %q", name, key, prev, src)
			}
			if prev, ok := keyOf[src]; ok && prev != key {
				t.Errorf("%s: Source %q spans world keys %q and %q", name, src, prev, key)
			}
			sourceOf[key], keyOf[src] = src, key
		}
		if len(sourceOf) < 2 {
			t.Errorf("%s: %d world(s); the test needs several", name, len(sourceOf))
		}
	}
}

// TestSiteCutsNest verifies the cut axis actually narrows the surface:
// for one swept app, s2 perturbs no more sites than the full cell, and
// every cut site list is a prefix of the full selection.
func TestSiteCutsNest(t *testing.T) {
	t.Parallel()
	jobs := sched.FilterJobs(matrix.SuiteJobs(), "turnin/vulnerable+s*")
	if len(jobs) == 0 {
		t.Fatal("no turnin cut cells; generator axis missing")
	}
	full, err := inject.Run(mustBuild(t, "turnin/vulnerable"))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		c := j.Build()
		if len(c.Sites) == 0 {
			t.Fatalf("cut cell %q has unrestricted sites", j.Label())
		}
		res, err := inject.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", j.Label(), err)
		}
		if got, max := len(res.PerturbedSites), len(full.PerturbedSites); got > max {
			t.Errorf("%s perturbs %d sites, full surface perturbs %d", j.Label(), got, max)
		}
		if len(res.Injections) >= len(full.Injections) {
			t.Errorf("%s plans %d runs, full surface plans %d; cut did not narrow", j.Label(), len(res.Injections), len(full.Injections))
		}
	}
}

// mustBuild builds the campaign of the matrix cell with the given
// label.
func mustBuild(t *testing.T, label string) inject.Campaign {
	t.Helper()
	for _, j := range matrix.SuiteJobs() {
		if j.Label() == label {
			return j.Build()
		}
	}
	t.Fatalf("no matrix cell labelled %q", label)
	return inject.Campaign{}
}
