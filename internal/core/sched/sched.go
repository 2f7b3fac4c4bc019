// Package sched executes fault-injection campaigns concurrently. The
// methodology of Section 3.3 makes every injection run independent —
// each builds a fresh world through the campaign Factory, perturbs it,
// and observes the oracle — so work can be scheduled at run
// granularity: the suite dispatcher (RunSuiteFrom) pulls jobs from a
// JobSource, expands every job into its inject.ExecPlan run units and
// feeds them through per-worker deques with work stealing, so workers
// rebalance onto whichever campaign still has runs outstanding instead
// of idling behind a static partition. A worker claims the next job
// only when no queued run is left to take; RunSuite is the same pass
// over a static job list. Results are deterministic: each run's
// outcome lands in its plan-order slot, so the assembled Result — and
// every rendered report — is byte-identical to the sequential
// engine's.
package sched
