package sched_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// runOne runs one job as a one-job suite across the given workers,
// the way eptest -campaign runs it for -j above 1.
func runOne(job sched.Job, workers int) (*inject.Result, error) {
	cr := sched.RunSuite([]sched.Job{job}, sched.SuiteOptions{Workers: workers}).Campaigns[0]
	return cr.Result, cr.Err
}

// TestParallelMatchesSequential asserts a one-job suite's Result is
// identical to the sequential engine's for every catalog campaign, in
// both variants.
func TestParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, job := range apps.SuiteJobs() {
		job := job
		t.Run(job.Label(), func(t *testing.T) {
			t.Parallel()
			seq, err := inject.Run(job.Build())
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			par, err := runOne(job, 8)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !reflect.DeepEqual(seq.Injections, par.Injections) {
				t.Errorf("injections diverge between sequential and parallel runs")
			}
			if seq.Metric() != par.Metric() {
				t.Errorf("metric diverges: sequential %+v, parallel %+v", seq.Metric(), par.Metric())
			}
			if !reflect.DeepEqual(seq.TotalSites, par.TotalSites) ||
				!reflect.DeepEqual(seq.PerturbedSites, par.PerturbedSites) {
				t.Errorf("site lists diverge")
			}
		})
	}
}

// TestWorkerPoolStress hammers one campaign with far more workers than
// runs; under -race this doubles as the engine's data-race check.
func TestWorkerPoolStress(t *testing.T) {
	t.Parallel()
	spec, err := apps.Lookup("turnin")
	if err != nil {
		t.Fatal(err)
	}
	want, err := inject.Run(spec.Vulnerable())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for trial := 0; trial < 4; trial++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := runOne(sched.Job{Name: spec.Name, Build: spec.Vulnerable}, 64)
			if err != nil {
				t.Errorf("parallel: %v", err)
				return
			}
			if !reflect.DeepEqual(want.Injections, got.Injections) {
				t.Errorf("stress run diverged from sequential result")
			}
		}()
	}
	wg.Wait()
}

// TestDefaultWorkerCount checks a zero worker count still runs
// everything.
func TestDefaultWorkerCount(t *testing.T) {
	t.Parallel()
	spec, err := apps.Lookup("lpr-create-site")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOne(sched.Job{Name: spec.Name, Build: spec.Vulnerable}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Metric(); m.FaultsInjected != 4 || m.Violations() != 4 {
		t.Errorf("lpr create site = %d injected / %d violations, want 4/4",
			m.FaultsInjected, m.Violations())
	}
}

// TestRunCampaignPlanError propagates a one-job suite's planning
// failure as the job's error, with no result.
func TestRunCampaignPlanError(t *testing.T) {
	t.Parallel()
	res, err := runOne(sched.Job{Name: "empty", Build: func() inject.Campaign { return inject.Campaign{Name: "empty"} }}, 4)
	if err == nil || res != nil {
		t.Fatalf("campaign without a world factory = (%v, %v), want a planning error", res, err)
	}
}

// TestSuiteMatchesSequential runs the full catalog as one suite and
// checks every per-campaign metric against the sequential engine.
func TestSuiteMatchesSequential(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()
	sr := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 8})
	if len(sr.Campaigns) != len(jobs) {
		t.Fatalf("suite returned %d campaigns, want %d", len(sr.Campaigns), len(jobs))
	}
	if failed := sr.Failed(); len(failed) != 0 {
		t.Fatalf("suite campaigns failed: %v", failed)
	}
	for i, c := range sr.Campaigns {
		if c.Job.Label() != jobs[i].Label() {
			t.Fatalf("suite result %d is %s, want job order preserved (%s)", i, c.Job.Label(), jobs[i].Label())
		}
		seq, err := inject.Run(jobs[i].Build())
		if err != nil {
			t.Fatalf("%s sequential: %v", c.Job.Label(), err)
		}
		if seq.Metric() != c.Result.Metric() {
			t.Errorf("%s: suite metric %+v != sequential %+v", c.Job.Label(), c.Result.Metric(), seq.Metric())
		}
		if !reflect.DeepEqual(seq.Injections, c.Result.Injections) {
			t.Errorf("%s: suite injections diverge from sequential", c.Job.Label())
		}
	}
}

// TestSuiteEvents checks the per-job event protocol: one planned event,
// monotonic progress, one done event, with consistent totals.
func TestSuiteEvents(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()[:4]
	type state struct {
		planned, done bool
		total, seen   int
	}
	states := map[string]*state{}
	sr := sched.RunSuite(jobs, sched.SuiteOptions{
		Workers: 4,
		OnEvent: func(ev sched.Event) {
			s := states[ev.Job.Label()]
			if s == nil {
				s = &state{}
				states[ev.Job.Label()] = s
			}
			switch ev.Kind {
			case sched.EventPlanned:
				if s.planned {
					t.Errorf("%s: duplicate planned event", ev.Job.Label())
				}
				s.planned = true
				s.total = ev.Total
			case sched.EventProgress:
				if !s.planned || s.done {
					t.Errorf("%s: progress outside planned..done window", ev.Job.Label())
				}
				if ev.Done != s.seen+1 {
					t.Errorf("%s: progress jumped %d -> %d", ev.Job.Label(), s.seen, ev.Done)
				}
				s.seen = ev.Done
			case sched.EventDone:
				if s.done {
					t.Errorf("%s: duplicate done event", ev.Job.Label())
				}
				s.done = true
				if ev.Err == nil && s.seen != s.total {
					t.Errorf("%s: done after %d/%d progress events", ev.Job.Label(), s.seen, s.total)
				}
			}
		},
	})
	if len(sr.Failed()) != 0 {
		t.Fatalf("failed campaigns: %v", sr.Failed())
	}
	if len(states) != len(jobs) {
		t.Fatalf("events seen for %d jobs, want %d", len(states), len(jobs))
	}
	for label, s := range states {
		if !s.planned || !s.done {
			t.Errorf("%s: incomplete event sequence (planned=%v done=%v)", label, s.planned, s.done)
		}
	}
}

// TestSuiteReportsPlanFailures keeps scheduling the remaining jobs when
// one campaign cannot plan.
func TestSuiteReportsPlanFailures(t *testing.T) {
	t.Parallel()
	good, err := apps.Lookup("lpr-create-site")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sched.Job{
		{Name: "broken", Variant: "vulnerable", Build: func() inject.Campaign { return inject.Campaign{Name: "broken"} }},
		{Name: good.Name, Variant: "vulnerable", Build: good.Vulnerable},
	}
	sr := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 2})
	if len(sr.Failed()) != 1 || sr.Failed()[0].Job.Name != "broken" {
		t.Fatalf("failed = %v, want exactly the broken job", sr.Failed())
	}
	if sr.Campaigns[1].Err != nil || sr.Campaigns[1].Result == nil {
		t.Fatalf("good job did not complete: %+v", sr.Campaigns[1])
	}
}
