package sched

import "sync"

// SourcedJob couples a Job with its position in the source's global
// catalog. Seq is the merge key: a worker's partial SuiteResult lists
// campaigns in Seq order, and a coordinator reassembles results from
// many workers at their Seq indices, so the merged report is identical
// to a single-process run over the full catalog.
type SourcedJob struct {
	Job Job
	// Seq is the job's index in the full, unsharded catalog.
	Seq int
}

// JobSource supplies a suite's jobs incrementally — the seam that lets
// the Dispatcher pull work from a remote claim queue (coord.Source)
// instead of a static pre-partitioned slice. The dispatcher calls Next
// from a single feeder goroutine and Complete from worker goroutines;
// implementations must tolerate Complete calls racing one another.
//
// Next may block (a remote source polls until a job frees up); it
// returns ok=false only when the source is permanently drained — no
// job will ever be returned again — which is what lets every
// dispatcher worker exit.
type JobSource interface {
	// Next blocks until another job is available and returns it, or
	// returns ok=false when the source is drained.
	Next() (sj SourcedJob, ok bool)
	// Complete reports one previously returned job's outcome.
	Complete(sj SourcedJob, cr CampaignResult)
}

// SliceSource adapts a static job list to the JobSource seam: jobs are
// handed out in catalog order, and Complete is a no-op (the dispatcher
// already collects results). It is safe for several dispatchers to
// share one SliceSource — each job is returned exactly once across all
// of them — which is the in-process model of the distributed
// coordinator's claim queue.
type SliceSource struct {
	mu   sync.Mutex
	jobs []Job
	next int
}

// NewSliceSource returns a source over the job list.
func NewSliceSource(jobs []Job) *SliceSource {
	return &SliceSource{jobs: jobs}
}

// Next returns the next unclaimed job.
func (s *SliceSource) Next() (SourcedJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.jobs) {
		return SourcedJob{}, false
	}
	sj := SourcedJob{Job: s.jobs[s.next], Seq: s.next}
	s.next++
	return sj, true
}

// Complete implements JobSource; the slice source keeps no outcomes.
func (s *SliceSource) Complete(SourcedJob, CampaignResult) {}

// RunSuiteFrom schedules jobs pulled from src through the same
// run-granularity work-stealing dispatcher as RunSuite. The returned
// SuiteResult holds only the jobs this dispatcher claimed, ordered by
// their catalog Seq, so a run over a SliceSource of the full catalog
// is identical to RunSuite over the same slice.
func RunSuiteFrom(src JobSource, opt SuiteOptions) *SuiteResult {
	return opt.dispatcher().RunFrom(src)
}
