package sched_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core/inject"
	"repro/internal/core/obs"
	"repro/internal/core/report"
	"repro/internal/core/sched"
)

// skewedJobs builds a seeded, deliberately unbalanced job list: a few
// expensive campaigns (turnin plans 41 runs) scattered among many
// cheap ones (lpr-create-site plans 4), in an order derived from a
// small LCG so the mix is reproducible without being sorted. It is
// the workload where campaign-granularity scheduling stalls — one
// worker draws the heavy campaigns — and run-granularity stealing
// should not.
func skewedJobs(t testing.TB, seed uint32, n int) []sched.Job {
	t.Helper()
	heavy, err := apps.Lookup("turnin")
	if err != nil {
		t.Fatal(err)
	}
	light, err := apps.Lookup("lpr-create-site")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]sched.Job, 0, n)
	state := seed
	for i := 0; i < n; i++ {
		state = state*1664525 + 1013904223 // Numerical Recipes LCG
		spec, variant := light, "vulnerable"
		if state%4 == 0 {
			spec = heavy
		}
		if state%2 == 0 {
			variant = "fixed"
		}
		build := spec.Vulnerable
		if variant == "fixed" {
			build = spec.Fixed
		}
		jobs = append(jobs, sched.Job{Name: spec.Name, Variant: variant, Build: build})
	}
	return jobs
}

// sequentialSuite is the reference: every job through the strictly
// sequential engine, assembled into the same SuiteResult shape.
func sequentialSuite(t testing.TB, jobs []sched.Job) *sched.SuiteResult {
	t.Helper()
	sr := &sched.SuiteResult{Campaigns: make([]sched.CampaignResult, len(jobs))}
	for i, job := range jobs {
		res, err := inject.Run(job.Build())
		if err != nil {
			t.Fatalf("%s: %v", job.Label(), err)
		}
		sr.Campaigns[i] = sched.CampaignResult{Job: job, Result: res}
	}
	return sr
}

// TestDispatcherDeterministicOnSkewedSuite is the tentpole acceptance
// test: across several seeds of a skewed-cost catalog, the
// work-stealing dispatcher's rendered suite report — and every
// underlying injection — is byte-identical to the sequential engine's.
// Under -race this doubles as the dispatcher's data-race check.
func TestDispatcherDeterministicOnSkewedSuite(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint32{1, 7, 42} {
		seed := seed
		t.Run(string(rune('a'+seed%26)), func(t *testing.T) {
			t.Parallel()
			jobs := skewedJobs(t, seed, 12)
			want := sequentialSuite(t, jobs)
			got := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 8})
			if failed := got.Failed(); len(failed) != 0 {
				t.Fatalf("dispatcher failed campaigns: %v", failed)
			}
			if w, g := report.SuiteRun(want), report.SuiteRun(got); w != g {
				t.Errorf("suite report diverges:\n--- sequential ---\n%s--- dispatcher ---\n%s", w, g)
			}
			for i := range jobs {
				if !reflect.DeepEqual(want.Campaigns[i].Result.Injections, got.Campaigns[i].Result.Injections) {
					t.Errorf("%s: injections diverge from sequential", jobs[i].Label())
				}
			}
		})
	}
}

// TestDispatcherFullCatalogByteIdentical pins the acceptance criterion
// on the real workload: the full apps.Catalog() suite, work-stealing
// vs sequential, byte-identical rendered reports (summary table and
// clustered findings).
func TestDispatcherFullCatalogByteIdentical(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()
	want := sequentialSuite(t, jobs)
	got := sched.RunSuite(jobs, sched.SuiteOptions{Workers: runtime.GOMAXPROCS(0)})
	if w, g := report.SuiteRun(want), report.SuiteRun(got); w != g {
		t.Errorf("summary table diverges:\n--- sequential ---\n%s--- dispatcher ---\n%s", w, g)
	}
	if w, g := report.Clusters(sched.ClusterSuite(want)), report.Clusters(sched.ClusterSuite(got)); w != g {
		t.Errorf("clustered findings diverge:\n--- sequential ---\n%s--- dispatcher ---\n%s", w, g)
	}
}

// TestDispatcherStats checks the deterministic half of the scheduling
// stats — totals and per-worker accounting — and that idle workers
// steal when a single expensive campaign lands on one deque. Whether a
// thief gets a CPU before the planning worker drains its own deque is
// up to the Go scheduler, so the planning worker is held inside its
// first run's progress event until a steal is counted.
func TestDispatcherStats(t *testing.T) {
	t.Parallel()
	spec, err := apps.Lookup("turnin")
	if err != nil {
		t.Fatal(err)
	}
	job := sched.Job{Name: spec.Name, Variant: "vulnerable", Build: spec.Vulnerable}

	reg := obs.NewRegistry()
	steals := reg.Counter("eptest_steals_total", "Tasks taken from another worker's deque.")
	sr := sched.RunSuite([]sched.Job{job}, sched.SuiteOptions{Workers: 8, Metrics: reg, OnEvent: func(ev sched.Event) {
		if ev.Kind != sched.EventProgress || ev.Done != 1 {
			return
		}
		for deadline := time.Now().Add(10 * time.Second); steals.Value() == 0; {
			if time.Now().After(deadline) {
				t.Error("no idle worker stole one of the 40 runs queued behind the first")
				return
			}
			runtime.Gosched()
		}
	}})
	ds := sr.Dispatch
	if ds.Workers != 8 || len(ds.PerWorker) != 8 {
		t.Fatalf("stats workers = %d/%d, want 8", ds.Workers, len(ds.PerWorker))
	}
	if ds.Plans != 1 {
		t.Fatalf("stats plans = %d, want 1", ds.Plans)
	}
	if want := len(sr.Campaigns[0].Result.Injections); ds.Runs != want {
		t.Fatalf("stats runs = %d, want %d", ds.Runs, want)
	}
	var plans, runs, stolen int
	for _, ws := range ds.PerWorker {
		plans += ws.Plans
		runs += ws.Runs
		stolen += ws.Steals
	}
	if plans != ds.Plans || runs != ds.Runs || stolen != ds.Steals {
		t.Fatalf("per-worker stats %d/%d/%d do not sum to totals %d/%d/%d",
			plans, runs, stolen, ds.Plans, ds.Runs, ds.Steals)
	}
	if ds.Steals == 0 || int64(ds.Steals) != steals.Value() {
		t.Errorf("stats steals = %d, counter %d; want the same count, above 0", ds.Steals, steals.Value())
	}
}

// TestDispatcherMoreWorkersThanWork exercises the park/steal/exit
// protocol when most workers never find a task.
func TestDispatcherMoreWorkersThanWork(t *testing.T) {
	t.Parallel()
	spec, err := apps.Lookup("lpr-create-site")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sched.Job{{Name: spec.Name, Variant: "vulnerable", Build: spec.Vulnerable}}
	sr := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 64})
	if len(sr.Failed()) != 0 {
		t.Fatalf("failed: %v", sr.Failed())
	}
	if m := sr.Campaigns[0].Result.Metric(); m.FaultsInjected != 4 || m.Violations() != 4 {
		t.Errorf("lpr create site = %d injected / %d violations, want 4/4", m.FaultsInjected, m.Violations())
	}
}

// TestDispatcherEmptySuite pins the zero-job edge: workers start,
// observe a drained dispatcher, and exit.
func TestDispatcherEmptySuite(t *testing.T) {
	t.Parallel()
	sr := sched.RunSuite(nil, sched.SuiteOptions{Workers: 4})
	if len(sr.Campaigns) != 0 || sr.Dispatch.Runs != 0 || sr.Dispatch.Plans != 0 {
		t.Errorf("empty suite = %+v", sr)
	}
}
