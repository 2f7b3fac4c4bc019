package sched

import "repro/internal/core/inject"

// Cache is a campaign-result cache keyed by fingerprint. The
// Dispatcher consults it twice per job: before planning under the
// source fingerprint (inject.SourceFingerprint — a hit skips even the
// clean run) and after planning under the plan fingerprint
// (inject.(*ExecPlan).Fingerprint). A hit replays the stored result in
// place of the job's runs; a miss runs the job and writes the result
// back under both addresses.
//
// Implementations must be safe for concurrent use — the dispatcher
// calls them from every worker. This is the transport seam for
// distributed suites: store.Store implements it over append-only
// segment logs in a local directory (shared by -shard processes),
// store.Client over HTTP against the store an `eptest -serve-coord`
// coordinator serves to its workers.
type Cache interface {
	// Get returns the result cached under the fingerprint, if any.
	Get(fingerprint string) (*inject.Result, bool)
	// Put stores a freshly computed result under its fingerprint.
	// label is the human-readable job label, kept for inspection.
	Put(fingerprint, label string, res *inject.Result) error
}
