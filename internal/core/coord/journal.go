package coord

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// JournalSchemaVersion identifies the coordinator's durable-state
// record shape. A journal written by a different schema is rejected at
// restore rather than half-understood. Bump it on any incompatible
// record change.
const JournalSchemaVersion = "eptest-coordlog/1"

// Journal record ops. Each state transition the coordinator makes is
// appended as one record; replaying them in order rebuilds the queue.
const (
	opMeta       = "meta"        // journal header: schema, catalog identity, totals
	opCampaign   = "campaign"    // a named campaign was submitted
	opRegister   = "register"    // a worker joined (or reattached)
	opClaim      = "claim"       // a lease was granted (absolute deadline)
	opRenew      = "renew"       // leases were extended (absolute deadline)
	opExpire     = "expire"      // a lease expired and its job requeued
	opComplete   = "complete"    // an outcome was recorded (or discarded as duplicate)
	opWorkerGone = "worker-gone" // a departed worker was folded into aggregate totals
	opCampaignGC = "campaign-gc" // a finished campaign passed retention and was dropped
)

// JournalCounters is one worker's protocol counters. Compaction writes
// them, absolute, into the register records, so a compacted journal
// loses no history; DepartedStats sums them over departed workers.
type JournalCounters struct {
	Claims      int `json:"claims,omitempty"`
	Renewals    int `json:"renewals,omitempty"`
	Completions int `json:"completions,omitempty"`
	Duplicates  int `json:"duplicates,omitempty"`
	Expiries    int `json:"expiries,omitempty"`
	RunsDone    int `json:"runs_done,omitempty"`
}

// JournalRecord is one line of the coordinator journal. The op decides
// which fields are meaningful; every record carries its wall-clock
// timestamp (the meta header's is the queue's creation time), so replay
// restores completion and campaign times.
// Lease records carry absolute deadlines (not TTL offsets), so an
// in-flight lease survives a quick coordinator restart and a stale one
// requeues at the first sweep after restore.
type JournalRecord struct {
	Op       string `json:"op"`
	AtMillis int64  `json:"at_ms,omitempty"`

	// meta fields — journal identity plus aggregate totals at snapshot
	// time (incremental records re-accumulate on top of them). Expiries
	// repeats Requeues, since every expiry requeues; restore reads
	// Requeues.
	Schema      string         `json:"schema,omitempty"`
	CatalogHash string         `json:"catalog_hash,omitempty"`
	Jobs        int            `json:"jobs,omitempty"`
	LeaseMillis int64          `json:"lease_ms,omitempty"`
	Requeues    int            `json:"requeues,omitempty"`
	Expiries    int            `json:"expiries,omitempty"`
	Duplicates  int            `json:"duplicates,omitempty"`
	Departed    *DepartedStats `json:"departed,omitempty"`

	// campaign fields.
	Name           string `json:"name,omitempty"`
	Filter         string `json:"filter,omitempty"`
	Priority       int    `json:"priority,omitempty"`
	Note           string `json:"note,omitempty"`
	CreatedMillis  int64  `json:"created_ms,omitempty"`
	FinishedMillis int64  `json:"finished_ms,omitempty"`

	// worker fields. Counters rides only in snapshot register records.
	Worker     string           `json:"worker,omitempty"`
	WorkerName string           `json:"worker_name,omitempty"`
	Counters   *JournalCounters `json:"counters,omitempty"`

	// lease fields. Index deliberately has no omitempty: job 0 is real.
	Index         int   `json:"index"`
	Indices       []int `json:"indices,omitempty"`
	ExpiresMillis int64 `json:"expires_ms,omitempty"`

	// completion fields. When ResultRef is set the outcome's Result
	// bytes are elided — the campaign result is cache-resident under
	// Outcome.Fingerprint and is re-encoded from the store at restore,
	// byte-identically (the cache codec is canonical).
	Duplicate bool     `json:"duplicate,omitempty"`
	Outcome   *Outcome `json:"outcome,omitempty"`
	ResultRef bool     `json:"result_ref,omitempty"`
}

// Journal is the coordinator's durable-state sink. FileJournal persists
// records as JSON lines through the store's journal file; MemJournal
// backs fake-clock tests. A nil Journal in Options means in-memory
// operation (the pre-durability behaviour, and what unit tests that do
// not care about restarts use).
type Journal interface {
	// Append records one state transition.
	Append(rec *JournalRecord) error
	// Sync flushes appended records to stable storage; called after
	// completion records, the expensive-to-lose ones.
	Sync() error
	// Rewrite atomically replaces the journal with a compacted
	// snapshot (the restore path replays, then compacts).
	Rewrite(recs []*JournalRecord) error
}

// FileJournal persists coordinator records as JSON lines in a
// store-directory journal file (<store>/coord/journal.jsonl).
type FileJournal struct {
	j *store.Journal
}

// OpenFileJournal reads every intact record from the journal at path
// (a missing file is an empty journal; a torn trailing line from a
// crash mid-append is dropped) and opens the file for appending.
func OpenFileJournal(path string) (*FileJournal, []*JournalRecord, error) {
	lines, err := store.ReadJournalLines(path)
	if err != nil {
		return nil, nil, fmt.Errorf("coord: %w", err)
	}
	recs := make([]*JournalRecord, 0, len(lines))
	for i, line := range lines {
		var r JournalRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, nil, fmt.Errorf("coord: journal %s record %d does not parse (%v); move the file aside to start a fresh queue", path, i+1, err)
		}
		recs = append(recs, &r)
	}
	j, err := store.OpenJournal(path)
	if err != nil {
		return nil, nil, fmt.Errorf("coord: %w", err)
	}
	return &FileJournal{j: j}, recs, nil
}

// Append implements Journal.
func (f *FileJournal) Append(rec *JournalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("coord: encode journal record: %w", err)
	}
	return f.j.Append(b)
}

// Sync implements Journal.
func (f *FileJournal) Sync() error { return f.j.Sync() }

// Rewrite implements Journal.
func (f *FileJournal) Rewrite(recs []*JournalRecord) error {
	lines := make([][]byte, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("coord: encode journal record: %w", err)
		}
		lines[i] = b
	}
	return f.j.Rewrite(lines)
}

// Close releases the underlying file handle.
func (f *FileJournal) Close() error { return f.j.Close() }

// MemJournal is an in-memory Journal for tests. Records round-trip
// through the JSON codec on Append, so a replay from Records exercises
// exactly the bytes a FileJournal would have persisted.
type MemJournal struct {
	recs []*JournalRecord
}

// Append implements Journal.
func (m *MemJournal) Append(rec *JournalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	var r JournalRecord
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	m.recs = append(m.recs, &r)
	return nil
}

// Sync implements Journal.
func (m *MemJournal) Sync() error { return nil }

// Rewrite implements Journal.
func (m *MemJournal) Rewrite(recs []*JournalRecord) error {
	m.recs = append([]*JournalRecord(nil), recs...)
	return nil
}

// Records returns the journal's current contents.
func (m *MemJournal) Records() []*JournalRecord {
	return append([]*JournalRecord(nil), m.recs...)
}

// CatalogHash fingerprints a job catalog for the journal's meta record:
// a journal only replays against the exact catalog it was written for
// (same -matrix/-filter flags), and the hash rejects a mismatch with a
// clear diagnostic instead of replaying indices into the wrong jobs.
func CatalogHash(catalog []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", len(catalog))
	for _, l := range catalog {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// metaRecordLocked builds the journal header carrying the catalog
// identity and the aggregate totals at this instant. Callers hold
// co.mu.
func (co *Coordinator) metaRecordLocked() *JournalRecord {
	rec := &JournalRecord{
		Op:          opMeta,
		Schema:      JournalSchemaVersion,
		CatalogHash: CatalogHash(co.catalog),
		Jobs:        len(co.catalog),
		LeaseMillis: co.ttl.Milliseconds(),
		Requeues:    co.requeues,
		Expiries:    co.requeues,
		Duplicates:  co.duplicates,
	}
	if co.departed.Workers > 0 {
		d := co.departed
		rec.Departed = &d
	}
	return rec
}

// commitLocked makes one state transition: it stamps the record with
// the clock, applies it, and journals it. The live methods keep only
// their validation and their decision (which index to claim, which
// leases expired); Restore applies journaled records through the same
// applyLocked. A rejected record changes nothing and is not journaled.
// A record built from the current state (a registration, claim,
// renewal, expiry or GC) always applies, so those callers drop the
// error; Complete and Submit carry caller input and return it. Callers
// hold co.mu.
func (co *Coordinator) commitLocked(rec *JournalRecord) error {
	rec.AtMillis = co.now().UnixMilli()
	if err := co.applyLocked(rec); err != nil {
		return err
	}
	co.appendJournalLocked(rec)
	return nil
}

// appendJournalLocked journals one applied record. A completion's
// outcome goes down by reference when cache-resident, and a duplicate
// completion's outcome not at all. Journal failures degrade to
// in-memory operation with a single log line — a full disk must not
// stop the fleet mid-campaign. Callers hold co.mu.
func (co *Coordinator) appendJournalLocked(rec *JournalRecord) {
	if co.journal == nil {
		return
	}
	if rec.Op == opComplete {
		if rec.Duplicate {
			rec.Outcome = nil
		} else {
			rec.Outcome, rec.ResultRef = co.journalOutcomeLocked(rec.Outcome, co.catalog[rec.Index])
		}
	}
	if err := co.journal.Append(rec); err != nil {
		co.journalErrOnce.Do(func() {
			co.logf("coord: journal append failed (queue state will not survive a restart): %v", err)
		})
	}
}

// syncJournalLocked flushes the journal after expensive-to-lose
// records. Callers hold co.mu.
func (co *Coordinator) syncJournalLocked() {
	if co.journal == nil {
		return
	}
	if err := co.journal.Sync(); err != nil {
		co.journalErrOnce.Do(func() {
			co.logf("coord: journal sync failed (queue state may not survive a restart): %v", err)
		})
	}
}

// journalOutcomeLocked builds the completion record's outcome payload,
// eliding the result bytes when the campaign result is cache-resident
// under its fingerprint (ensuring it is, with a Get-then-Put through
// Options.Results). Callers hold co.mu.
func (co *Coordinator) journalOutcomeLocked(o *Outcome, label string) (*Outcome, bool) {
	jo := *o
	if co.results == nil || o.Fingerprint == "" || o.Err != "" {
		return &jo, false
	}
	if _, ok := co.results.Get(o.Fingerprint); !ok {
		res, err := store.DecodeResult(o.Result)
		if err != nil {
			return &jo, false
		}
		if err := co.results.Put(o.Fingerprint, label, res); err != nil {
			return &jo, false
		}
	}
	jo.Result = nil
	return &jo, true
}

// checkIndex rejects a catalog index outside the queue.
func (co *Coordinator) checkIndex(op string, i int) error {
	if i < 0 || i >= len(co.jobs) {
		return fmt.Errorf("%s index %d out of range [0,%d)", op, i, len(co.jobs))
	}
	return nil
}

// applyLocked is the coordinator's transition function: it validates
// one record against the current state and applies it. Live commits
// and Restore both call it, so job phases, worker counters and the
// aggregate totals are written here and nowhere else. Only a register
// record creates a worker row; every other record bumps counters only
// on a row that exists, so a record naming a departed worker cannot
// bring it back. A record from a worker's own call refreshes its
// heartbeat. Callers hold co.mu (or own co exclusively, as Restore
// does).
func (co *Coordinator) applyLocked(rec *JournalRecord) error {
	if rec.AtMillis == 0 {
		return fmt.Errorf("%s record carries no timestamp", rec.Op)
	}
	if rec.Op == opClaim || rec.Op == opExpire || rec.Op == opComplete {
		if err := co.checkIndex(rec.Op, rec.Index); err != nil {
			return err
		}
	}
	at := time.UnixMilli(rec.AtMillis)
	ws := co.workers[rec.Worker]
	if ws != nil && rec.Op != opExpire {
		ws.lastSeen = at
	}
	// Keep freshly minted ids ahead of every id the records name,
	// departed workers' included.
	co.bumpNextIDLocked(rec.Worker)
	switch rec.Op {
	case opMeta:
		switch {
		case rec.Schema != JournalSchemaVersion:
			return fmt.Errorf("journal schema %q, this binary writes %q; finish the campaign with the old binary or move the journal aside", rec.Schema, JournalSchemaVersion)
		case rec.Jobs != len(co.catalog) || rec.CatalogHash != CatalogHash(co.catalog):
			return fmt.Errorf("journal was written for a different %d-job catalog; restart with the journal's -matrix/-filter flags, or move the journal aside to start fresh", rec.Jobs)
		}
		co.requeues, co.duplicates = rec.Requeues, rec.Duplicates
		co.departed = DepartedStats{}
		if rec.Departed != nil {
			co.departed = *rec.Departed
		}
		co.campaigns[DefaultCampaignName].createdAt = at
	case opCampaign:
		if _, ok := co.campaigns[rec.Name]; ok {
			return fmt.Errorf("%w: %q", ErrCampaignExists, rec.Name)
		}
		if rec.CreatedMillis == 0 {
			return fmt.Errorf("campaign record %q carries no creation time", rec.Name)
		}
		c, err := co.newCampaignLocked(rec.Name, rec.Filter, rec.Priority, rec.Note, time.UnixMilli(rec.CreatedMillis))
		if err != nil {
			return err
		}
		if rec.FinishedMillis != 0 {
			c.finishedAt = time.UnixMilli(rec.FinishedMillis)
		}
	case opRegister:
		if rec.Worker == "" {
			return fmt.Errorf("register record names no worker")
		}
		if ws == nil {
			ws = &workerStats{id: rec.Worker, name: rec.WorkerName, lastSeen: at}
			co.workers[ws.id] = ws
			co.order = append(co.order, ws.id)
			if ws.name != "" {
				co.byName[ws.name] = ws.id
			}
		}
		if rec.Counters != nil {
			ws.JournalCounters = *rec.Counters
		}
	case opClaim:
		j := &co.jobs[rec.Index]
		if j.phase == jobDone {
			return fmt.Errorf("claim of job %d, which is done", rec.Index)
		}
		*j = jobRecord{phase: jobClaimed, worker: rec.Worker, expires: time.UnixMilli(rec.ExpiresMillis)}
		if ws != nil {
			ws.Claims++
		}
	case opRenew:
		for _, i := range rec.Indices {
			if err := co.checkIndex(rec.Op, i); err != nil {
				return err
			}
		}
		for _, i := range rec.Indices {
			if j := &co.jobs[i]; j.phase == jobClaimed && j.worker == rec.Worker {
				j.expires = time.UnixMilli(rec.ExpiresMillis)
				if ws != nil {
					ws.Renewals++
				}
			}
		}
	case opExpire:
		j := &co.jobs[rec.Index]
		if j.phase != jobClaimed {
			return nil
		}
		if holder := co.workers[j.worker]; holder != nil {
			holder.Expiries++
		}
		*j = jobRecord{phase: jobPending}
		co.requeues++
	case opComplete:
		// The outcome passes the checks a live upload does; the first
		// completion of an index is recorded, every later one is a
		// duplicate.
		idx, o := rec.Index, rec.Outcome
		if o != nil {
			if label := (sched.Job{Name: o.Name, Variant: o.Variant}).Label(); label != co.catalog[idx] {
				return fmt.Errorf("completion for job %d is labelled %q, catalog names it %q", idx, label, co.catalog[idx])
			}
			if !rec.ResultRef {
				if err := o.validate(); err != nil {
					return fmt.Errorf("completion for job %d: %w", idx, err)
				}
			}
		} else if !rec.Duplicate {
			return fmt.Errorf("completion for job %d has no outcome", idx)
		}
		if rec.Duplicate || co.jobs[idx].phase == jobDone {
			if ws != nil {
				ws.Duplicates++
			}
			co.duplicates++
			return nil
		}
		if rec.ResultRef {
			// Restore could not resolve the by-reference result (the
			// cache entry is gone): the job goes back to pending and the
			// fleet redoes it.
			co.jobs[idx] = jobRecord{phase: jobPending}
			co.logf("coord: journal outcome for job %d (%s) references missing cache entry %s; job requeued", idx, co.catalog[idx], o.Fingerprint)
			return nil
		}
		co.jobs[idx] = jobRecord{phase: jobDone, outcome: o, doneBy: rec.Worker, doneAt: at}
		co.extractFindingsLocked(idx, o)
		runs := countRuns(o)
		if ws != nil {
			ws.Completions++
			ws.RunsDone += runs
		}
		co.done++
		co.doneOrder = append(co.doneOrder, idx)
		co.runsDone += runs
		for _, name := range co.campOrder {
			if c := co.campaigns[name]; c.member[idx] {
				c.done++
				if c.done == c.jobs && c.finishedAt.IsZero() {
					c.finishedAt = at
				}
			}
		}
	case opWorkerGone:
		if ws == nil {
			return nil
		}
		d := &co.departed
		d.Workers++
		d.Claims += ws.Claims
		d.Renewals += ws.Renewals
		d.Completions += ws.Completions
		d.Duplicates += ws.Duplicates
		d.Expiries += ws.Expiries
		d.RunsDone += ws.RunsDone
		delete(co.workers, ws.id)
		if ws.name != "" && co.byName[ws.name] == ws.id {
			delete(co.byName, ws.name)
		}
		co.order = slices.DeleteFunc(co.order, func(id string) bool { return id == ws.id })
	case opCampaignGC:
		co.dropCampaignLocked(rec.Name)
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// Restore rebuilds a coordinator from its journal. With no records it
// is New (and writes the journal header). Otherwise the meta record is
// checked against the catalog — a journal replays only against the
// catalog it was written for (same -matrix/-filter flags) — and every
// record is applied in order through the transition function the live
// path uses, after by-reference outcomes are re-encoded from
// Options.Results. The journal is then compacted to a snapshot of the
// restored state.
//
// A claim answered Wait or Drained refreshes a heartbeat without a
// record, so a journaled heartbeat can be older than the worker's last
// call: Restore restarts every worker's heartbeat clock instead.
func Restore(catalog []string, opt Options, recs []*JournalRecord) (*Coordinator, error) {
	if len(recs) == 0 {
		return New(catalog, opt), nil
	}
	co := newCoordinator(catalog, opt)
	if op := recs[0].Op; op != opMeta {
		return nil, fmt.Errorf("coord: journal does not start with a meta record (op %q); move it aside to start fresh", op)
	}
	for i, rec := range recs {
		var err error
		if i > 0 && rec.Op == opMeta {
			err = fmt.Errorf("unexpected mid-journal meta record")
		} else if rec, err = co.resolveRef(rec); err == nil {
			err = co.applyLocked(rec)
		}
		if err != nil {
			return nil, fmt.Errorf("coord: journal record %d: %w", i+1, err)
		}
	}
	now := co.now()
	for _, ws := range co.workers {
		ws.lastSeen = now
	}
	co.resumed = true
	co.updateGaugesLocked()
	co.m.workers.Set(int64(len(co.workers)))
	if co.done == len(co.jobs) && len(co.jobs) > 0 {
		close(co.drained)
	}
	if co.journal != nil {
		if err := co.journal.Rewrite(co.snapshotLocked()); err != nil {
			co.logf("coord: journal compaction failed (restart will replay the full log): %v", err)
		}
	}
	return co, nil
}

// resolveRef re-attaches the result bytes a completion record elided by
// reference, re-encoded from Options.Results (the cache codec is
// canonical, so the bytes are identical). When the cache entry is gone
// the record comes back unresolved, and applying it requeues the job.
func (co *Coordinator) resolveRef(rec *JournalRecord) (*JournalRecord, error) {
	if !rec.ResultRef || rec.Outcome == nil || co.results == nil || rec.Outcome.Fingerprint == "" {
		return rec, nil
	}
	res, ok := co.results.Get(rec.Outcome.Fingerprint)
	if !ok {
		return rec, nil
	}
	b, err := store.EncodeResult(res)
	if err != nil {
		return nil, fmt.Errorf("re-encode cached outcome for job %d: %w", rec.Index, err)
	}
	r, o := *rec, *rec.Outcome
	o.Result = b
	r.Outcome, r.ResultRef = &o, false
	return &r, nil
}

// bumpNextIDLocked keeps freshly minted worker ids ("w<N>") ahead of
// every id the journal restored.
func (co *Coordinator) bumpNextIDLocked(id string) {
	if !strings.HasPrefix(id, "w") {
		return
	}
	if n, err := strconv.Atoi(id[1:]); err == nil && n > co.nextID {
		co.nextID = n
	}
}

// snapshotLocked renders the coordinator's entire state as the minimal
// record list whose replay rebuilds it: meta with the aggregate totals
// and the departed workers, the named campaigns, one complete record
// per done job (in completion order, at its completion time) and one
// claim record per leased job, and last one register record per worker
// carrying its absolute counters. The worker rows come after the job
// records, so the job records bump no counter and name no row into
// being. Callers hold co.mu (or own co exclusively, as Restore does).
func (co *Coordinator) snapshotLocked() []*JournalRecord {
	now := co.now().UnixMilli()
	recs := []*JournalRecord{co.metaRecordLocked()}
	recs[0].AtMillis = co.campaigns[DefaultCampaignName].createdAt.UnixMilli()
	for _, name := range co.campOrder {
		if name == DefaultCampaignName {
			continue
		}
		c := co.campaigns[name]
		rec := &JournalRecord{
			Op:            opCampaign,
			AtMillis:      now,
			Name:          c.name,
			Filter:        c.filter,
			Priority:      c.priority,
			Note:          c.note,
			CreatedMillis: c.createdAt.UnixMilli(),
		}
		if !c.finishedAt.IsZero() {
			rec.FinishedMillis = c.finishedAt.UnixMilli()
		}
		recs = append(recs, rec)
	}
	for _, i := range co.doneOrder {
		j := &co.jobs[i]
		jo, ref := co.journalOutcomeLocked(j.outcome, co.catalog[i])
		recs = append(recs, &JournalRecord{
			Op: opComplete, AtMillis: j.doneAt.UnixMilli(), Worker: j.doneBy, Index: i,
			Outcome: jo, ResultRef: ref,
		})
	}
	for i := range co.jobs {
		if j := &co.jobs[i]; j.phase == jobClaimed {
			recs = append(recs, &JournalRecord{
				Op: opClaim, AtMillis: now, Worker: j.worker, Index: i,
				ExpiresMillis: j.expires.UnixMilli(),
			})
		}
	}
	for _, id := range co.order {
		ws := co.workers[id]
		c := ws.JournalCounters
		recs = append(recs, &JournalRecord{
			Op: opRegister, AtMillis: ws.lastSeen.UnixMilli(), Worker: ws.id, WorkerName: ws.name, Counters: &c,
		})
	}
	return recs
}
