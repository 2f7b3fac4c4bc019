package sched_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core/inject"
	"repro/internal/core/report"
	"repro/internal/core/sched"
)

// TestRunSuiteFromSliceSourceByteIdentical pins the job-source seam:
// pulling the catalog through a SliceSource renders the exact suite
// report (and clusters) a static RunSuite produces — the sourced
// dispatcher is a pure scheduling change.
func TestRunSuiteFromSliceSourceByteIdentical(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()
	want := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 4})
	got := sched.RunSuiteFrom(sched.NewSliceSource(jobs), sched.SuiteOptions{Workers: 4})
	if len(got.Campaigns) != len(want.Campaigns) {
		t.Fatalf("sourced run has %d campaigns, want %d", len(got.Campaigns), len(want.Campaigns))
	}
	if gr, wr := report.SuiteRun(got), report.SuiteRun(want); gr != wr {
		t.Errorf("sourced suite report differs:\n--- static ---\n%s\n--- sourced ---\n%s", wr, gr)
	}
	if gc, wc := report.Clusters(sched.ClusterSuite(got)), report.Clusters(sched.ClusterSuite(want)); gc != wc {
		t.Errorf("sourced cluster report differs")
	}
}

// countingSource wraps a SliceSource and records completions, checking
// each job is completed exactly once with a usable result.
type countingSource struct {
	*sched.SliceSource
	mu        sync.Mutex
	completed map[int]int
}

func (c *countingSource) Complete(sj sched.SourcedJob, cr sched.CampaignResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completed[sj.Seq]++
}

// TestRunSuiteFromReportsEveryCompletion pins the Complete half of the
// seam: every claimed job is reported back exactly once, including
// failed and zero-run jobs.
func TestRunSuiteFromReportsEveryCompletion(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()
	src := &countingSource{SliceSource: sched.NewSliceSource(jobs), completed: map[int]int{}}
	sched.RunSuiteFrom(src, sched.SuiteOptions{Workers: 8})
	if len(src.completed) != len(jobs) {
		t.Fatalf("%d completions for %d jobs", len(src.completed), len(jobs))
	}
	for seq, n := range src.completed {
		if n != 1 {
			t.Errorf("job %d completed %d times", seq, n)
		}
	}
}

// TestRunSuiteFromSharedSourceUnion runs several dispatchers over one
// shared SliceSource — the in-process model of many machines draining
// one coordinator — and checks the union of their partial results is
// exactly the catalog, each campaign claimed once, each partial result
// in catalog order.
func TestRunSuiteFromSharedSourceUnion(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()
	src := sched.NewSliceSource(jobs)

	const dispatchers = 3
	results := make([]*sched.SuiteResult, dispatchers)
	var wg sync.WaitGroup
	for d := 0; d < dispatchers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			results[d] = sched.RunSuiteFrom(src, sched.SuiteOptions{Workers: 2})
		}(d)
	}
	wg.Wait()

	seen := map[string]int{}
	total := 0
	for _, sr := range results {
		lastSeq := -1
		for _, c := range sr.Campaigns {
			seen[c.Job.Label()]++
			total++
			if c.Result == nil && c.Err == nil {
				t.Errorf("%s has neither result nor error", c.Job.Label())
			}
			// Partial results are ordered by catalog position.
			seq := indexOf(t, jobs, c.Job.Label())
			if seq <= lastSeq {
				t.Errorf("partial result out of catalog order at %s", c.Job.Label())
			}
			lastSeq = seq
		}
	}
	if total != len(jobs) {
		t.Fatalf("dispatchers ran %d campaigns total, want %d", total, len(jobs))
	}
	for label, n := range seen {
		if n != 1 {
			t.Errorf("%s claimed %d times", label, n)
		}
	}
}

// indexOf finds a label's catalog position.
func indexOf(t *testing.T, jobs []sched.Job, label string) int {
	t.Helper()
	for i, j := range jobs {
		if j.Label() == label {
			return i
		}
	}
	t.Fatalf("label %q not in catalog", label)
	return -1
}

// gatedSource hands out its jobs in order. Its second Next call blocks
// until gate closes, and every call records how many Next calls were
// in flight at once and every Complete.
type gatedSource struct {
	t       *testing.T
	jobs    []sched.Job
	entered chan struct{} // closed when the second Next call starts
	gate    chan struct{} // closed when the first job is done

	mu        sync.Mutex
	next      int
	completed map[int]int

	inNext, maxInNext atomic.Int32
}

func (s *gatedSource) Next() (sched.SourcedJob, bool) {
	n := s.inNext.Add(1)
	defer s.inNext.Add(-1)
	for {
		m := s.maxInNext.Load()
		if n <= m || s.maxInNext.CompareAndSwap(m, n) {
			break
		}
	}
	s.mu.Lock()
	seq := s.next
	s.next++
	s.mu.Unlock()
	if seq == 1 {
		close(s.entered)
		select {
		case <-s.gate:
		case <-time.After(10 * time.Second):
			s.t.Error("the first job's queued runs did not finish while a worker blocked in Next")
		}
	}
	if seq >= len(s.jobs) {
		return sched.SourcedJob{}, false
	}
	return sched.SourcedJob{Job: s.jobs[seq], Seq: seq}, true
}

func (s *gatedSource) Complete(sj sched.SourcedJob, _ sched.CampaignResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed[sj.Seq]++
}

// TestRunSuiteFromBlockingSource pins the JobSource contract at four
// workers: the dispatcher makes at most one Next call at a time, the
// runs already queued keep executing while a worker blocks in Next,
// and every job is completed exactly once. The first job's plan waits
// until the second Next call has started, so all of its 41 runs are
// queued behind that blocked call, and the call returns only once they
// have all executed.
func TestRunSuiteFromBlockingSource(t *testing.T) {
	t.Parallel()
	spec, err := apps.Lookup("turnin")
	if err != nil {
		t.Fatal(err)
	}
	src := &gatedSource{
		t:         t,
		entered:   make(chan struct{}),
		gate:      make(chan struct{}),
		completed: map[int]int{},
	}
	first := sched.Job{Name: spec.Name, Variant: "vulnerable", Build: func() inject.Campaign {
		select {
		case <-src.entered:
		case <-time.After(10 * time.Second):
			t.Error("no second Next call while the first job was planning")
		}
		return spec.Vulnerable()
	}}
	src.jobs = append([]sched.Job{first}, apps.SuiteJobs()[:5]...)

	var done sync.Once
	sr := sched.RunSuiteFrom(src, sched.SuiteOptions{Workers: 4, OnEvent: func(ev sched.Event) {
		if ev.Kind == sched.EventDone && ev.Job.Name == first.Name && ev.Job.Variant == first.Variant {
			done.Do(func() { close(src.gate) })
		}
	}})

	if m := src.maxInNext.Load(); m != 1 {
		t.Errorf("%d Next calls were in flight at once, want 1", m)
	}
	if len(sr.Campaigns) != len(src.jobs) || len(src.completed) != len(src.jobs) {
		t.Fatalf("%d campaigns and %d completions for %d jobs", len(sr.Campaigns), len(src.completed), len(src.jobs))
	}
	for seq, n := range src.completed {
		if n != 1 {
			t.Errorf("job %d completed %d times", seq, n)
		}
	}
	if m := sr.Campaigns[0].Result.Metric(); m.FaultsInjected != 41 {
		t.Errorf("first job injected %d faults, want 41", m.FaultsInjected)
	}
}
