// Package coord is the distributed campaign coordinator: it serves a
// suite's job catalog as a claimable queue so an elastic fleet of
// worker processes drains one perturbation matrix together, extending
// the in-process work-stealing dispatcher (internal/core/sched) to the
// machine level.
//
// The protocol is lease-based. Workers register against the catalog,
// claim jobs one at a time under time-bounded leases, renew the leases
// of their in-flight claims via heartbeat, and report each outcome
// back. A lease that expires — a crashed, partitioned, or merely slow
// worker — requeues its job for the next claimer, and late duplicate
// completions are resolved first-write-wins, so every catalog index
// ends up with exactly one recorded outcome and the merged suite
// report is byte-identical to a single-process run.
//
// Every state transition is one JournalRecord applied by a single
// transition function: the live methods decide and commit a record,
// and Restore applies the journaled records through the same code.
// The queue is durable when Options.Journal is set: each committed
// record is appended, and Restore rebuilds the coordinator from the
// journal after a crash or restart — in-flight leases keep
// their absolute deadlines (stale ones requeue at the first sweep),
// recorded outcomes are reloaded (cache-resident results by
// reference), and the fleet resumes mid-campaign. Named campaigns —
// filtered, prioritised views over the shared catalog submitted
// through the REST API — ride the same journal. The state machine,
// wire schema, journal records, and failure semantics are specified in
// docs/COORDINATOR.md.
package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/core/obs"
	"repro/internal/core/sched"
)

// DefaultLeaseTTL is the lease duration used when Options.LeaseTTL is
// zero: long enough that a loaded worker heartbeating at TTL/3 never
// loses a lease to scheduling jitter, short enough that a crashed
// worker's jobs requeue before an operator notices the stall.
const DefaultLeaseTTL = 60 * time.Second

// DefaultCampaignName names the implicit campaign covering the full
// catalog. It exists from startup, is never garbage-collected, and is
// what a plain worker fleet drains when nothing has been submitted.
const DefaultCampaignName = "default"

// DefaultCampaignRetention is how long a finished named campaign's
// record stays visible in status endpoints before the sweep drops it,
// when the operator does not override -campaign-retention.
const DefaultCampaignRetention = 24 * time.Hour

// workerGCFloor bounds how aggressively departed workers are folded
// away: even under a very short test-grade lease TTL, a silent worker
// keeps its status row for at least this long, so a fleet riding out a
// coordinator restart (or a test inspecting per-worker counters) never
// loses a row mid-flight.
const workerGCFloor = time.Minute

// Options parameterises a Coordinator.
type Options struct {
	// LeaseTTL is how long a claim stays valid without a renewal.
	// Zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Now is the clock; nil means time.Now. Tests inject a fake clock
	// here to drive expiry deterministically.
	Now func() time.Time
	// Metrics, when non-nil, receives queue telemetry: claim outcomes,
	// renewals, lease expiries, completion results, and job/worker
	// gauges, all under the eptest_coord_* names.
	Metrics *obs.Registry
	// Journal, when non-nil, receives every queue state transition;
	// Restore replays the records after a restart. Nil means the
	// queue is in-memory only (the pre-durability behaviour).
	Journal Journal
	// Results, when non-nil, is the campaign-result cache the journal
	// dedups against: completed outcomes whose results are
	// cache-resident under their fingerprint are journaled by
	// reference instead of inline, and re-encoded from the cache at
	// restore.
	Results sched.Cache
	// Retention is how long a finished named campaign stays visible
	// before the sweep garbage-collects its record. Zero disables the
	// GC; the default campaign is always exempt.
	Retention time.Duration
	// Logf, when non-nil, receives operational warnings (journal
	// write failures, unreadable cache refs, template render errors).
	// Nil means the standard logger.
	Logf func(format string, args ...any)
}

// jobPhase is one catalog entry's position in the lease state machine.
type jobPhase int

const (
	jobPending jobPhase = iota // unclaimed (initially, or after an expiry requeue)
	jobClaimed                 // leased to a worker
	jobDone                    // outcome recorded; terminal
)

// jobRecord is one catalog entry's coordinator-side state.
type jobRecord struct {
	phase   jobPhase
	worker  string       // lease holder while claimed
	expires time.Time    // lease deadline while claimed
	outcome *Outcome     // recorded result once done
	doneBy  string       // worker whose completion won
	doneAt  time.Time    // when the winning completion was recorded
	finds   *jobFindings // violation extract once done (nil when clean/failed)
}

// workerStats counts one registered worker's protocol activity.
type workerStats struct {
	id, name string
	JournalCounters
	lastSeen time.Time // last protocol call (the heartbeat age base)
}

// campaign is one named view over the shared per-index job state. All
// campaigns share the catalog's single lease/outcome record per index
// — a completed index satisfies every campaign containing it, so
// overlapping campaigns dedup by construction. A campaign influences
// claiming only through its priority: Claim hands out the pending
// index whose best containing campaign has the highest priority.
type campaign struct {
	name, filter, note string
	priority           int
	member             []bool // member[i]: catalog index i is in this campaign
	jobs, done         int
	createdAt          time.Time
	finishedAt         time.Time // zero while running

	gPending, gClaimed, gDone *obs.Gauge
}

// DepartedStats aggregates the protocol counters of workers the churn
// sweep has folded away, so the totals a departed worker earned stay
// visible after its status row is gone.
type DepartedStats struct {
	Workers int `json:"workers"`
	JournalCounters
}

// Coordinator is the lease-based claim queue over one job catalog. All
// methods are safe for concurrent use; expired leases are swept lazily
// on every call, so no background timer is needed.
type Coordinator struct {
	mu      sync.Mutex
	catalog []string
	ttl     time.Duration
	now     func() time.Time
	reg     *obs.Registry

	jobs     []jobRecord
	workers  map[string]*workerStats
	order    []string          // worker ids in registration order
	byName   map[string]string // live worker name -> id, the reattach seam
	nextID   int
	departed DepartedStats

	campaigns map[string]*campaign
	campOrder []string // campaign names in submission order, default first
	retention time.Duration

	journal        Journal
	results        sched.Cache
	logFn          func(format string, args ...any)
	journalErrOnce sync.Once
	resumed        bool

	done      int   // jobs in jobDone
	doneOrder []int // indices of the done jobs, in completion order
	// requeues counts expired leases; every expiry requeues, so it
	// renders as both Stats.Requeues and Stats.Expiries.
	requeues   int
	duplicates int
	runsDone   int // injection runs across recorded outcomes
	// Soft state, never journaled: liveDone/liveRuns count only
	// completions recorded by this process, so the ETA's
	// observed-throughput base never mixes pre-restart work into the
	// post-restart elapsed time.
	liveDone  int
	liveRuns  int
	startedAt time.Time // queue creation (or restore), the ETA's rate base
	m         coordMetrics
	drained   chan struct{}
	// change is closed and replaced whenever the queue gains pending
	// work or drains — the edges a blocked claim waits on. The HTTP
	// server's long-poll loop selects on it so workers learn about
	// requeues and the drain the moment they happen instead of
	// rediscovering them at the next poll.
	change chan struct{}
}

// New returns a coordinator over the catalog (the label of every job
// in the full suite, in order — what sched.Job.Label renders). With
// Options.Journal set, the journal's meta header is written; use
// Restore to rebuild from an existing journal instead.
func New(catalog []string, opt Options) *Coordinator {
	co := newCoordinator(catalog, opt)
	co.mu.Lock()
	co.commitLocked(co.metaRecordLocked())
	co.mu.Unlock()
	return co
}

// newCoordinator builds the in-memory state shared by New and Restore,
// including the implicit full-catalog default campaign. It writes no
// journal records.
func newCoordinator(catalog []string, opt Options) *Coordinator {
	ttl := opt.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	now := opt.Now
	if now == nil {
		now = time.Now
	}
	co := &Coordinator{
		catalog:   append([]string(nil), catalog...),
		ttl:       ttl,
		now:       now,
		reg:       opt.Metrics,
		jobs:      make([]jobRecord, len(catalog)),
		doneOrder: make([]int, 0, len(catalog)),
		workers:   make(map[string]*workerStats),
		byName:    make(map[string]string),
		campaigns: make(map[string]*campaign),
		retention: opt.Retention,
		journal:   opt.Journal,
		results:   opt.Results,
		logFn:     opt.Logf,
		startedAt: now(),
		drained:   make(chan struct{}),
		change:    make(chan struct{}),
	}
	co.m.resolve(opt.Metrics)
	// The default campaign always matches the full catalog, so the
	// zero-member error path is unreachable.
	co.newCampaignLocked(DefaultCampaignName, "", 0, "full catalog", co.startedAt)
	co.updateGaugesLocked()
	return co
}

// logf routes an operational warning to Options.Logf or the standard
// logger.
func (co *Coordinator) logf(format string, args ...any) {
	if co.logFn != nil {
		co.logFn(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Resumed reports whether this coordinator was rebuilt from a journal
// (Restore with records) rather than started fresh.
func (co *Coordinator) Resumed() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.resumed
}

// coordMetrics is the coordinator's metric handles, resolved once at
// New. Handles are nil without a registry; obs handles are nil-safe,
// so call sites record unconditionally. The counters are soft state:
// they count this process's calls and are never journaled.
type coordMetrics struct {
	claimGranted, claimWait, claimDrained *obs.Counter
	renewals, expiries                    *obs.Counter
	recorded, duplicates                  *obs.Counter
	workers                               *obs.Gauge
	pending, claimed, doneJobs            *obs.Gauge
}

// resolve looks up every coordinator metric in r (nil-safe).
func (m *coordMetrics) resolve(r *obs.Registry) {
	const claimHelp = "Claim requests by outcome."
	m.claimGranted = r.Counter("eptest_coord_claims_total", claimHelp, "status", "granted")
	m.claimWait = r.Counter("eptest_coord_claims_total", claimHelp, "status", "wait")
	m.claimDrained = r.Counter("eptest_coord_claims_total", claimHelp, "status", "drained")
	m.renewals = r.Counter("eptest_coord_renewals_total", "Leases extended by heartbeats.")
	m.expiries = r.Counter("eptest_coord_lease_expiries_total", "Leases expired and requeued.")
	const doneHelp = "Completion uploads by result."
	m.recorded = r.Counter("eptest_coord_completions_total", doneHelp, "result", "recorded")
	m.duplicates = r.Counter("eptest_coord_completions_total", doneHelp, "result", "duplicate")
	m.workers = r.Gauge("eptest_coord_workers", "Workers registered against the queue.")
	const jobsHelp = "Catalog jobs by lease phase."
	m.pending = r.Gauge("eptest_coord_jobs", jobsHelp, "phase", "pending")
	m.claimed = r.Gauge("eptest_coord_jobs", jobsHelp, "phase", "claimed")
	m.doneJobs = r.Gauge("eptest_coord_jobs", jobsHelp, "phase", "done")
}

// campaignGaugeHelp documents the per-campaign job gauges.
const campaignGaugeHelp = "Campaign jobs by lease phase."

// newCampaignLocked creates a campaign from a filter over the catalog,
// counting already-done members so a campaign submitted after its work
// happened completes instantly. Callers hold co.mu (or own co
// exclusively during construction/restore).
func (co *Coordinator) newCampaignLocked(name, filter string, priority int, note string, created time.Time) (*campaign, error) {
	c := &campaign{
		name: name, filter: filter, priority: priority, note: note,
		member:    make([]bool, len(co.jobs)),
		createdAt: created,
	}
	for i, label := range co.catalog {
		if sched.MatchLabel(filter, label) {
			c.member[i] = true
			c.jobs++
			if co.jobs[i].phase == jobDone {
				c.done++
			}
		}
	}
	if c.jobs == 0 && name != DefaultCampaignName {
		return nil, fmt.Errorf("%w (filter %q)", ErrNoJobs, filter)
	}
	if c.jobs > 0 && c.done == c.jobs {
		c.finishedAt = created
	}
	if co.reg != nil {
		c.gPending = co.reg.Gauge("eptest_coord_campaign_jobs", campaignGaugeHelp, "campaign", name, "phase", "pending")
		c.gClaimed = co.reg.Gauge("eptest_coord_campaign_jobs", campaignGaugeHelp, "campaign", name, "phase", "claimed")
		c.gDone = co.reg.Gauge("eptest_coord_campaign_jobs", campaignGaugeHelp, "campaign", name, "phase", "done")
	}
	co.campaigns[name] = c
	co.campOrder = append(co.campOrder, name)
	co.updateCampaignGaugesLocked(c)
	return c, nil
}

// dropCampaignLocked removes a campaign record (a campaign-gc record).
// Callers hold co.mu.
func (co *Coordinator) dropCampaignLocked(name string) {
	c := co.campaigns[name]
	if c == nil || name == DefaultCampaignName {
		return
	}
	c.gPending.Set(0)
	c.gClaimed.Set(0)
	c.gDone.Set(0)
	delete(co.campaigns, name)
	for i, n := range co.campOrder {
		if n == name {
			co.campOrder = append(co.campOrder[:i], co.campOrder[i+1:]...)
			break
		}
	}
}

// updateCampaignGaugesLocked republishes one campaign's phase gauges.
// Callers hold co.mu.
func (co *Coordinator) updateCampaignGaugesLocked(c *campaign) {
	if c.gPending == nil {
		return
	}
	pending, claimed, done := 0, 0, 0
	for i, in := range c.member {
		if !in {
			continue
		}
		switch co.jobs[i].phase {
		case jobPending:
			pending++
		case jobClaimed:
			claimed++
		case jobDone:
			done++
		}
	}
	c.gPending.Set(int64(pending))
	c.gClaimed.Set(int64(claimed))
	c.gDone.Set(int64(done))
}

// updateGaugesLocked republishes the job-phase gauges. Callers hold
// co.mu (or, in New, exclusive ownership).
func (co *Coordinator) updateGaugesLocked() {
	pending, claimed := 0, 0
	for i := range co.jobs {
		switch co.jobs[i].phase {
		case jobPending:
			pending++
		case jobClaimed:
			claimed++
		}
	}
	co.m.pending.Set(int64(pending))
	co.m.claimed.Set(int64(claimed))
	co.m.doneJobs.Set(int64(co.done))
	for _, name := range co.campOrder {
		co.updateCampaignGaugesLocked(co.campaigns[name])
	}
}

// notifyLocked wakes every blocked claim. Callers hold co.mu.
func (co *Coordinator) notifyLocked() {
	close(co.change)
	co.change = make(chan struct{})
}

// Changed returns a channel closed at the next claim-relevant state
// change (a requeue or the drain).
func (co *Coordinator) Changed() <-chan struct{} {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.change
}

// NextExpiry returns the earliest lease deadline among claimed jobs.
// A long-poll waiter wakes then to run the sweep that requeues it.
func (co *Coordinator) NextExpiry() (time.Time, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	var earliest time.Time
	found := false
	for i := range co.jobs {
		j := &co.jobs[i]
		if j.phase == jobClaimed && (!found || j.expires.Before(earliest)) {
			earliest = j.expires
			found = true
		}
	}
	return earliest, found
}

// LeaseTTL returns the coordinator's lease duration.
func (co *Coordinator) LeaseTTL() time.Duration { return co.ttl }

// Catalog returns the job catalog the coordinator serves.
func (co *Coordinator) Catalog() []string { return append([]string(nil), co.catalog...) }

// sweepLocked advances everything time-driven: it requeues every
// claimed job whose lease has expired, folds long-silent workers into
// the departed aggregate, and drops finished campaigns past their
// retention. Callers hold co.mu.
func (co *Coordinator) sweepLocked() {
	now := co.now()
	requeued := false
	for i := range co.jobs {
		j := &co.jobs[i]
		if j.phase == jobClaimed && !j.expires.After(now) {
			co.commitLocked(&JournalRecord{Op: opExpire, Index: i, Worker: j.worker})
			co.m.expiries.Inc()
			requeued = true
		}
	}
	co.gcWorkersLocked(now)
	co.gcCampaignsLocked(now)
	if requeued {
		co.updateGaugesLocked()
		co.notifyLocked()
	}
}

// gcWorkersLocked folds workers that hold no lease and have been
// silent for max(3×TTL, 1min) into the departed aggregate, so an
// always-on coordinator under worker churn keeps a bounded status
// table instead of one row per join ever. Callers hold co.mu.
func (co *Coordinator) gcWorkersLocked(now time.Time) {
	cutoff := 3 * co.ttl
	if cutoff < workerGCFloor {
		cutoff = workerGCFloor
	}
	held := make(map[string]int)
	for i := range co.jobs {
		if co.jobs[i].phase == jobClaimed {
			held[co.jobs[i].worker]++
		}
	}
	var gone []string
	for _, id := range co.order {
		ws := co.workers[id]
		if held[id] == 0 && now.Sub(ws.lastSeen) >= cutoff {
			gone = append(gone, id)
		}
	}
	for _, id := range gone {
		co.commitLocked(&JournalRecord{Op: opWorkerGone, Worker: id})
	}
	if len(gone) > 0 {
		co.m.workers.Set(int64(len(co.workers)))
	}
}

// gcCampaignsLocked drops finished named campaigns older than the
// retention window. Callers hold co.mu.
func (co *Coordinator) gcCampaignsLocked(now time.Time) {
	if co.retention <= 0 {
		return
	}
	var gone []string
	for _, name := range co.campOrder {
		if name == DefaultCampaignName {
			continue
		}
		c := co.campaigns[name]
		if !c.finishedAt.IsZero() && now.Sub(c.finishedAt) >= co.retention {
			gone = append(gone, name)
		}
	}
	for _, name := range gone {
		co.commitLocked(&JournalRecord{Op: opCampaignGC, Name: name})
	}
}

// Register admits a worker. The worker's catalog must equal the
// coordinator's — a worker built from different flags (or a different
// binary) would claim indices that name other campaigns, so the
// mismatch is rejected up front rather than surfacing as a corrupt
// merge. A worker re-registering under a name the coordinator already
// knows reattaches to its existing stats row and id, so a restarting
// worker keeps one history instead of minting a fresh row per join.
// Returns the worker id used in every subsequent call.
func (co *Coordinator) Register(name string, catalog []string) (string, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if len(catalog) != len(co.catalog) {
		return "", fmt.Errorf("coord: worker catalog has %d jobs, coordinator serves %d (flags or binary mismatch?)", len(catalog), len(co.catalog))
	}
	for i := range catalog {
		if catalog[i] != co.catalog[i] {
			return "", fmt.Errorf("coord: worker catalog disagrees at job %d (%q vs %q); run the worker with the coordinator's -matrix/-filter flags", i, catalog[i], co.catalog[i])
		}
	}
	co.sweepLocked()
	id, ok := co.byName[name]
	if !ok {
		id = fmt.Sprintf("w%d", co.nextID+1)
	}
	co.commitLocked(&JournalRecord{Op: opRegister, Worker: id, WorkerName: name})
	co.m.workers.Set(int64(len(co.workers)))
	return id, nil
}

// ClaimStatus discriminates Claim outcomes.
type ClaimStatus int

const (
	// ClaimGranted means a job was leased to the caller.
	ClaimGranted ClaimStatus = iota + 1
	// ClaimWait means every remaining job is currently leased to some
	// worker; the caller should poll again — an expiry may requeue one.
	ClaimWait
	// ClaimDrained means every job is done; the caller can exit.
	ClaimDrained
)

// jobPriorityLocked returns the best priority among unfinished
// campaigns containing index i. The default campaign contains every
// index at priority zero, so the result is at least zero and — with no
// submitted campaigns — uniformly zero, which keeps claiming in plain
// lowest-index order. Callers hold co.mu.
func (co *Coordinator) jobPriorityLocked(i int) int {
	best := 0
	for _, name := range co.campOrder {
		c := co.campaigns[name]
		if c.done < c.jobs && c.member[i] && c.priority > best {
			best = c.priority
		}
	}
	return best
}

// Claim leases a pending job to the worker: the job in the
// highest-priority unfinished campaign, lowest catalog index breaking
// ties (with only the default campaign that is simply the lowest
// pending index). A granted claim must be completed before its lease
// expires, or renewed via Renew; otherwise it requeues for other
// workers.
func (co *Coordinator) Claim(workerID string) (idx int, status ClaimStatus, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	ws := co.workers[workerID]
	if ws == nil {
		return 0, 0, fmt.Errorf("coord: unknown worker %q (register first)", workerID)
	}
	// Refreshed before the sweep, which must not fold the caller away.
	// A claim answered Wait or Drained journals nothing: soft state.
	ws.lastSeen = co.now()
	co.sweepLocked()
	if co.done == len(co.jobs) {
		co.m.claimDrained.Inc()
		return 0, ClaimDrained, nil
	}
	best, bestPrio := -1, 0
	for i := range co.jobs {
		if co.jobs[i].phase != jobPending {
			continue
		}
		if p := co.jobPriorityLocked(i); best < 0 || p > bestPrio {
			best, bestPrio = i, p
		}
	}
	if best < 0 {
		co.m.claimWait.Inc()
		return 0, ClaimWait, nil
	}
	co.commitLocked(&JournalRecord{Op: opClaim, Worker: workerID, Index: best, ExpiresMillis: co.now().Add(co.ttl).UnixMilli()})
	co.m.claimGranted.Inc()
	co.updateGaugesLocked()
	return best, ClaimGranted, nil
}

// Renew extends the leases the worker still holds on the given
// indices. Indices the worker no longer holds — expired and requeued,
// reclaimed by another worker, or already done — come back in lost;
// the worker may keep executing them (first-write-wins decides), but
// must not assume exclusivity.
func (co *Coordinator) Renew(workerID string, indices []int) (renewed, lost []int, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	ws := co.workers[workerID]
	if ws == nil {
		return nil, nil, fmt.Errorf("coord: unknown worker %q (register first)", workerID)
	}
	ws.lastSeen = co.now()
	co.sweepLocked()
	var extended []int
	for _, i := range indices {
		if err := co.checkIndex(opRenew, i); err != nil {
			return nil, nil, fmt.Errorf("coord: %w", err)
		}
		j := &co.jobs[i]
		switch {
		case j.phase == jobClaimed && j.worker == workerID:
			co.m.renewals.Inc()
			renewed = append(renewed, i)
			extended = append(extended, i)
		case j.phase == jobDone && j.doneBy == workerID:
			// The worker's own completion landed between its renew
			// snapshot and this call — the lease was consumed, not
			// lost, so don't alarm anyone about the TTL.
			renewed = append(renewed, i)
		default:
			lost = append(lost, i)
		}
	}
	if len(extended) > 0 {
		co.commitLocked(&JournalRecord{Op: opRenew, Worker: workerID, Indices: extended, ExpiresMillis: co.now().Add(co.ttl).UnixMilli()})
	}
	return renewed, lost, nil
}

// Complete records one job's outcome. The first completion for an
// index wins regardless of who currently holds the lease — the work is
// deterministic, so any finished result is the result — and every
// later completion is acknowledged as a duplicate and discarded, so a
// slow worker racing its own expired lease can never overwrite the
// merged report. Returns duplicate=true for the discarded case.
func (co *Coordinator) Complete(workerID string, idx int, out Outcome) (duplicate bool, err error) {
	co.mu.Lock()
	ws := co.workers[workerID]
	if ws == nil {
		co.mu.Unlock()
		return false, fmt.Errorf("coord: unknown worker %q (register first)", workerID)
	}
	if err := co.checkIndex(opComplete, idx); err != nil {
		co.mu.Unlock()
		return false, fmt.Errorf("coord: %w", err)
	}
	ws.lastSeen = co.now()
	co.sweepLocked()
	rec := &JournalRecord{Op: opComplete, Worker: workerID, Index: idx, Outcome: &out, Duplicate: co.jobs[idx].phase == jobDone}
	runsBefore := co.runsDone
	if err := co.commitLocked(rec); err != nil {
		co.mu.Unlock()
		return false, fmt.Errorf("coord: %w", err)
	}
	if rec.Duplicate {
		co.m.duplicates.Inc()
		co.mu.Unlock()
		return true, nil
	}
	co.liveDone++
	co.liveRuns += co.runsDone - runsBefore
	co.m.recorded.Inc()
	co.syncJournalLocked()
	co.updateGaugesLocked()
	allDone := co.done == len(co.jobs)
	if allDone {
		co.notifyLocked()
	}
	co.mu.Unlock()
	if allDone {
		close(co.drained)
	}
	return false, nil
}

// countRuns extracts the injection-run count from an outcome's wire
// payload without a full structural decode: the injections array's
// length is all the status page and ETA need. Malformed or error-only
// outcomes count zero runs.
func countRuns(o *Outcome) int {
	if len(o.Result) == 0 {
		return 0
	}
	var rc struct {
		Injections []json.RawMessage `json:"injections"`
	}
	if json.Unmarshal(o.Result, &rc) != nil {
		return 0
	}
	return len(rc.Injections)
}

// Drained returns a channel closed once every catalog job has a
// recorded outcome.
func (co *Coordinator) Drained() <-chan struct{} { return co.drained }

// Campaign-submission errors, distinguished by the REST layer:
// ErrCampaignExists maps to 409 Conflict, ErrNoJobs to 400.
var (
	ErrCampaignExists = errors.New("coord: campaign name already exists")
	ErrNoJobs         = errors.New("coord: campaign filter matches no catalog jobs")
)

// Submit queues a named campaign: a filtered, prioritised view over
// the catalog. Members already completed count immediately — a
// campaign whose work all happened before submission finishes at
// submission. The spec must already be validated (DecodeCampaignSpec).
func (co *Coordinator) Submit(spec CampaignSpec) (CampaignStatus, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	if err := co.commitLocked(&JournalRecord{
		Op: opCampaign, Name: spec.Name, Filter: spec.Filter, Priority: spec.Priority,
		Note: spec.Note, CreatedMillis: co.now().UnixMilli(),
	}); err != nil {
		return CampaignStatus{}, err
	}
	co.syncJournalLocked()
	return co.campaignStatusLocked(co.campaigns[spec.Name]), nil
}

// CampaignStatus is one campaign's point-in-time progress, for the
// REST status endpoints and the status page.
type CampaignStatus struct {
	Name     string `json:"name"`
	Filter   string `json:"filter,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Note     string `json:"note,omitempty"`
	Jobs     int    `json:"jobs"`
	Pending  int    `json:"pending"`
	Claimed  int    `json:"claimed"`
	Done     int    `json:"done"`
	// State is "running" until every member job has an outcome, then
	// "done".
	State          string `json:"state"`
	CreatedMillis  int64  `json:"created_ms"`
	FinishedMillis int64  `json:"finished_ms,omitempty"`
	// Findings counts the distinct violation classes (canonical finding
	// records) among the campaign's completed jobs; Violations counts
	// the violating traces behind them.
	Findings   int `json:"findings,omitempty"`
	Violations int `json:"violations,omitempty"`
}

// campaignStatusLocked snapshots one campaign. Callers hold co.mu.
func (co *Coordinator) campaignStatusLocked(c *campaign) CampaignStatus {
	st := CampaignStatus{
		Name: c.name, Filter: c.filter, Priority: c.priority, Note: c.note,
		Jobs: c.jobs, Done: c.done,
		State:         "running",
		CreatedMillis: c.createdAt.UnixMilli(),
	}
	for i, in := range c.member {
		if !in {
			continue
		}
		switch co.jobs[i].phase {
		case jobPending:
			st.Pending++
		case jobClaimed:
			st.Claimed++
		}
		// Each index is a distinct (app, variant), so summing per-job
		// distinct signatures counts distinct finding records exactly.
		if jf := co.jobs[i].finds; jf != nil {
			st.Findings += jf.classes
			st.Violations += len(jf.occs)
		}
	}
	if c.jobs > 0 && c.done == c.jobs {
		st.State = "done"
	}
	if !c.finishedAt.IsZero() {
		st.FinishedMillis = c.finishedAt.UnixMilli()
	}
	return st
}

// Campaign returns one campaign's status by name.
func (co *Coordinator) Campaign(name string) (CampaignStatus, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	c, ok := co.campaigns[name]
	if !ok {
		return CampaignStatus{}, false
	}
	return co.campaignStatusLocked(c), true
}

// Campaigns returns every campaign's status in submission order,
// default first.
func (co *Coordinator) Campaigns() []CampaignStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	out := make([]CampaignStatus, 0, len(co.campOrder))
	for _, name := range co.campOrder {
		out = append(out, co.campaignStatusLocked(co.campaigns[name]))
	}
	return out
}

// WorkerStats is one worker's protocol counters, for reports.
type WorkerStats struct {
	ID, Name                                            string
	Claims, Renewals, Completions, Duplicates, Expiries int
}

// Stats is a point-in-time snapshot of the coordinator, for the
// report's coordinator section and the /v1/coord/state endpoint.
type Stats struct {
	Jobs    int `json:"jobs"`
	Pending int `json:"pending"`
	Claimed int `json:"claimed"`
	Done    int `json:"done"`
	// Requeues counts expired leases put back in the queue; Duplicates
	// counts late completions discarded first-write-wins.
	Requeues   int           `json:"requeues"`
	Expiries   int           `json:"expiries"`
	Duplicates int           `json:"duplicates"`
	Drained    bool          `json:"drained"`
	Workers    []WorkerStats `json:"workers,omitempty"`
	// Departed aggregates the counters of workers the churn sweep
	// folded away; nil until the first departure.
	Departed *DepartedStats `json:"departed,omitempty"`
	// Campaigns lists every campaign view in submission order (the
	// full-catalog default first).
	Campaigns []CampaignStatus `json:"campaigns,omitempty"`
}

// Stats snapshots the coordinator. The sweep runs first, so the
// pending/claimed split reflects current leases, not stale ones.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	st := Stats{
		Jobs:       len(co.jobs),
		Done:       co.done,
		Requeues:   co.requeues,
		Expiries:   co.requeues,
		Duplicates: co.duplicates,
		Drained:    co.done == len(co.jobs),
	}
	for i := range co.jobs {
		switch co.jobs[i].phase {
		case jobPending:
			st.Pending++
		case jobClaimed:
			st.Claimed++
		}
	}
	for _, id := range co.order {
		ws := co.workers[id]
		st.Workers = append(st.Workers, WorkerStats{
			ID: ws.id, Name: ws.name,
			Claims: ws.Claims, Renewals: ws.Renewals, Completions: ws.Completions,
			Duplicates: ws.Duplicates, Expiries: ws.Expiries,
		})
	}
	if co.departed.Workers > 0 {
		d := co.departed
		st.Departed = &d
	}
	for _, name := range co.campOrder {
		st.Campaigns = append(st.Campaigns, co.campaignStatusLocked(co.campaigns[name]))
	}
	return st
}

// SuiteResult assembles the recorded outcomes into the SuiteResult a
// single-process run over the catalog would have produced, campaigns
// in catalog order. It fails unless the queue has drained.
func (co *Coordinator) SuiteResult() (*sched.SuiteResult, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.done != len(co.jobs) {
		missing := make([]int, 0, 8)
		for i := range co.jobs {
			if co.jobs[i].phase != jobDone {
				missing = append(missing, i)
			}
		}
		sort.Ints(missing)
		return nil, fmt.Errorf("coord: %d of %d jobs incomplete (indices %v)", len(missing), len(co.jobs), missing)
	}
	sr := &sched.SuiteResult{Campaigns: make([]sched.CampaignResult, len(co.jobs))}
	for i := range co.jobs {
		cr, err := co.jobs[i].outcome.campaignResult()
		if err != nil {
			return nil, fmt.Errorf("coord: job %d (%s): %w", i, co.catalog[i], err)
		}
		sr.Campaigns[i] = cr
	}
	return sr, nil
}
