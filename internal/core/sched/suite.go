package sched

import (
	"strings"

	"repro/internal/core/inject"
	"repro/internal/core/obs"
)

// Job is one suite entry: a named campaign variant to schedule.
type Job struct {
	// Name is the catalog campaign name.
	Name string
	// Variant labels the program under test ("vulnerable", "fixed").
	// Matrix catalogs append axis tokens ("vulnerable+nodedup+s4");
	// report.Matrix parses them back out, so keep "+" as the separator.
	Variant string
	// Build constructs the campaign. It is invoked once, on a
	// dispatcher worker.
	Build func() inject.Campaign
	// Engine, when non-nil, is the engine options of this job; nil
	// means the zero inject.Options. It is the hook matrix catalogs use
	// to sweep inject.Options across cells of one suite. The options
	// take part in both cache fingerprints, so every sweep cell caches
	// independently.
	Engine *inject.Options
}

// Label renders the job for events and reports.
func (j Job) Label() string {
	if j.Variant == "" {
		return j.Name
	}
	return j.Name + "/" + j.Variant
}

// WorldKey names the world a job label runs in: the job name plus the
// first "+"-token of its variant, the program ("lpr/vulnerable" for
// "lpr/vulnerable+nodedup+s2"). Matrix cells of one app program share
// a campaign Source, and so a world, exactly when they share this key;
// the coordinator groups its claims by it, from the label alone.
func WorldKey(label string) string {
	name, variant, ok := strings.Cut(label, "/")
	if !ok {
		return label
	}
	program, _, _ := strings.Cut(variant, "+")
	return name + "/" + program
}

// engine returns the job's engine options: *j.Engine, or the zero
// options.
func (j Job) engine() inject.Options {
	if j.Engine != nil {
		return *j.Engine
	}
	return inject.Options{}
}

// EventKind discriminates suite progress events.
type EventKind int

const (
	// EventPlanned fires once a campaign's run count is known — after
	// its clean run and fault-list enumeration, or straight from the
	// cache on a source-fingerprint hit; Total is set.
	EventPlanned EventKind = iota + 1
	// EventProgress fires after each completed injection run.
	EventProgress
	// EventDone fires when a campaign finishes (Err set on failure).
	EventDone
)

// String renders the event kind.
func (k EventKind) String() string {
	switch k {
	case EventPlanned:
		return "planned"
	case EventProgress:
		return "progress"
	case EventDone:
		return "done"
	}
	return "unknown"
}

// Event is one suite progress notification. Events for a single job
// arrive in order; events for different jobs interleave. The
// dispatcher serialises callback invocations, so handlers need no
// locking.
type Event struct {
	Kind EventKind
	Job  Job
	// Done and Total count this campaign's injection runs.
	Done, Total int
	// Cached is set on EventDone when the campaign's result was
	// replayed from the cache instead of executed.
	Cached bool
	// Err is set on EventDone when the campaign failed to plan.
	Err error
}

// SuiteOptions parameterises a suite run (RunSuite, RunSuiteFrom).
// Engine options are not among them: each job carries its own
// (Job.Engine).
type SuiteOptions struct {
	// Workers is the global concurrency budget shared by every
	// campaign in the suite: the worker-goroutine count, the maximum
	// number of concurrently executing plan/run units. Zero or
	// negative means GOMAXPROCS.
	Workers int
	// OnEvent, when non-nil, receives progress events. Calls are
	// serialised.
	OnEvent func(Event)
	// Cache, when non-nil, makes the suite incremental. A job whose
	// source fingerprint (inject.SourceFingerprint) is cached replays
	// without even its clean run; otherwise the job plans, and a plan-
	// fingerprint hit replays without executing injection runs. Fresh
	// results are written back under both fingerprints. The Cache may
	// be local (store.Store) or a network transport (store.Client).
	Cache Cache
	// Metrics, when non-nil, receives fleet telemetry: run/plan/steal
	// counters, cache probes by tier and result, queue depth and run
	// latency. Purely observational — a nil registry and a populated one
	// yield byte-identical suite results.
	Metrics *obs.Registry
	// Tracer, when non-nil, records each plan and injection run as a
	// span tree (run ⊃ world/exec/compare, plus cache get/put spans) on
	// the executing worker's tid row.
	Tracer *obs.Tracer
}

// CampaignResult is one job's outcome.
type CampaignResult struct {
	Job    Job
	Result *inject.Result
	Err    error
	// Fingerprint is the job's plan fingerprint. Set only when the
	// suite ran with a cache and the job was actually planned (a
	// source-fingerprint hit skips planning, leaving it empty).
	Fingerprint string
	// SourceFingerprint is the job's source fingerprint. Set only when
	// the suite ran with a cache and the campaign declares a Source.
	SourceFingerprint string
	// Cached reports that Result was replayed from the cache.
	Cached bool
	// CachedSource reports that the replay hit at the source level —
	// the campaign skipped even its clean run.
	CachedSource bool
	// CacheErr records a failed cache write-back. The run itself
	// succeeded; the suite treats the cache as best-effort.
	CacheErr error
}

// SuiteResult aggregates a suite run, in job order.
type SuiteResult struct {
	Campaigns []CampaignResult
	// Dispatch describes the scheduling pass that produced the
	// campaigns. Zero for results assembled by store.MergeShards.
	Dispatch DispatchStats
}

// CacheHits counts the campaigns replayed from the cache.
func (s *SuiteResult) CacheHits() int {
	n := 0
	for _, c := range s.Campaigns {
		if c.Cached {
			n++
		}
	}
	return n
}

// Failed returns the jobs whose campaigns errored.
func (s *SuiteResult) Failed() []CampaignResult {
	var out []CampaignResult
	for _, c := range s.Campaigns {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}
