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

// JobSource supplies a suite's jobs incrementally: every pass of the
// dispatcher pulls its jobs through it, from a static list
// (SliceSource) or a remote claim queue (coord.Source). There is no
// feeder: a worker with no queued run to take calls Next itself, and
// the dispatcher allows one Next call at a time, while the other
// workers keep executing the runs already queued. Complete is called
// from worker goroutines, possibly while Next is in flight;
// implementations must tolerate Complete calls racing one another and
// Next.
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
// handed out last first, each with its index as Seq, and Complete is a
// no-op (the dispatcher already collects results). Last first because
// a cold matrix run (eptest -all -matrix -cache on 2 CPUs) peaks about
// 1.5 MB (4%) lower in that order than in catalog order. It is safe
// for several dispatchers to share one SliceSource — each job is
// returned exactly once across all of them — which is the in-process
// model of the distributed coordinator's claim queue.
type SliceSource struct {
	mu   sync.Mutex
	jobs []Job
	left int // jobs[:left] are unclaimed
}

// NewSliceSource returns a source over the job list.
func NewSliceSource(jobs []Job) *SliceSource {
	return &SliceSource{jobs: jobs, left: len(jobs)}
}

// Next returns the last unclaimed job.
func (s *SliceSource) Next() (SourcedJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left == 0 {
		return SourcedJob{}, false
	}
	s.left--
	return SourcedJob{Job: s.jobs[s.left], Seq: s.left}, true
}

// Complete implements JobSource; the slice source keeps no outcomes.
func (s *SliceSource) Complete(SourcedJob, CampaignResult) {}
