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
	// Engine, when non-nil, overrides the suite-wide engine options for
	// this job only — the hook matrix catalogs use to sweep
	// inject.Options across cells of one suite. The options take part
	// in both cache fingerprints, so every sweep cell caches
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

// engine resolves the job's effective engine options against the
// suite-wide default.
func (j Job) engine(suite inject.Options) inject.Options {
	if j.Engine != nil {
		return *j.Engine
	}
	return suite
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

// SuiteOptions parameterises a suite run. It is the option surface of
// RunSuite; the fields map one to one onto Dispatcher's.
type SuiteOptions struct {
	// Workers is the global concurrency budget shared by every
	// campaign in the suite. Zero or negative means GOMAXPROCS.
	Workers int
	// Engine is the injection-engine options applied to every job that
	// does not carry its own Job.Engine override.
	Engine inject.Options
	// OnEvent, when non-nil, receives progress events. Calls are
	// serialised.
	OnEvent func(Event)
	// Cache, when non-nil, makes the suite incremental; see
	// Dispatcher.Cache for the two-level fingerprint protocol.
	Cache Cache
	// Metrics, when non-nil, receives dispatcher telemetry; see
	// Dispatcher.Metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records per-run span trees; see
	// Dispatcher.Tracer.
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

// RunSuite schedules every job's injection runs across the
// run-granularity work-stealing dispatcher, bounded by opt.Workers
// concurrently executing units. Campaigns plan and execute
// concurrently with one another and runs rebalance across workers,
// but per-campaign results are deterministic and equal to sequential
// inject.RunWith output.
func RunSuite(jobs []Job, opt SuiteOptions) *SuiteResult {
	return opt.dispatcher().Run(jobs)
}

// dispatcher is the Dispatcher the suite options describe, shared by
// RunSuite and RunSuiteFrom.
func (opt SuiteOptions) dispatcher() *Dispatcher {
	return &Dispatcher{
		Workers: opt.Workers,
		Engine:  opt.Engine,
		OnEvent: opt.OnEvent,
		Cache:   opt.Cache,
		Metrics: opt.Metrics,
		Tracer:  opt.Tracer,
	}
}
