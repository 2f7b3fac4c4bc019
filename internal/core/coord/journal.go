package coord

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core/inject"
	"repro/internal/core/store"
)

// JournalSchemaVersion identifies the coordinator's durable-state
// record shape. A journal written by a different schema is rejected at
// restore rather than half-understood. Bump it on any incompatible
// record change.
//
// Version 2 follows eptest-store/2: an inline outcome's result is the
// campaign encoding without the clean trace. A version-1 journal's
// inline results no longer decode, so restore refuses it whole.
const JournalSchemaVersion = "eptest-coordlog/2"

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
	// time (incremental records re-accumulate on top of them). Every
	// expiry requeues, so Requeues is the expiry total too.
	Schema      string         `json:"schema,omitempty"`
	CatalogHash string         `json:"catalog_hash,omitempty"`
	Jobs        int            `json:"jobs,omitempty"`
	LeaseMillis int64          `json:"lease_ms,omitempty"`
	Requeues    int            `json:"requeues,omitempty"`
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

	// decoded is a live completion's outcome checked before co.mu was
	// taken; nil (as in every journaled record) means applyLocked
	// checks it. Never journaled, and gone with the record.
	decoded *outcomeDecode
}

// Journal is the coordinator's durable-state sink. FileJournal persists
// records as JSON lines in a file; the tests' MemJournal keeps them in
// memory. A nil Journal in Options means in-memory operation (the
// pre-durability behaviour, and what unit tests that do not care about
// restarts use).
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

// FileJournal is the coordinator's journal file
// (<store>/coord/journal.jsonl), and the one code that writes or reads
// it. Each record is one line, json.Marshal's bytes and a '\n', and
// Append writes the line in one write(2), so a crash tears at most the
// last line. OpenFileJournal drops a torn tail, so a journal survives
// SIGKILL at any instant. Rewrite compacts through a same-directory
// temp file that is synced before it is renamed over the journal, so
// a crash during compaction leaves the old generation or the new one.
type FileJournal struct {
	path string

	mu  sync.Mutex // guards the fields below
	f   *os.File   // opened O_APPEND
	buf bytes.Buffer
	enc *json.Encoder // writes into buf
}

// OpenFileJournal reads every record from the journal at path and opens
// the file for appending, creating it and its directory if need be. A
// missing file is an empty journal, blank lines are skipped, and the
// bytes after the last '\n', an append a crash tore, are dropped and
// cut from the file, so the next append starts a line of its own. A
// complete line that is not a record fails the open.
func OpenFileJournal(path string) (*FileJournal, []*JournalRecord, error) {
	all, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("coord: journal %s: %w", path, err)
	}
	b := all[:bytes.LastIndexByte(all, '\n')+1]
	var recs []*JournalRecord
	for line := range bytes.Lines(b) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r JournalRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, nil, fmt.Errorf("coord: journal %s record %d does not parse (%v); move the file aside to start a fresh queue", path, len(recs)+1, err)
		}
		recs = append(recs, &r)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("coord: journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("coord: journal %s: %w", path, err)
	}
	if len(b) < len(all) {
		if err := f.Truncate(int64(len(b))); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("coord: journal %s: %w", path, err)
		}
	}
	j := &FileJournal{path: path, f: f}
	j.enc = json.NewEncoder(&j.buf)
	return j, recs, nil
}

// Append implements Journal. The record is encoded into a buffer the
// journal reuses, so an append allocates nothing once it has grown.
func (j *FileJournal) Append(rec *JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf.Reset()
	if err := j.enc.Encode(rec); err != nil {
		return fmt.Errorf("coord: encode journal record: %w", err)
	}
	if _, err := j.f.Write(j.buf.Bytes()); err != nil {
		return fmt.Errorf("coord: journal append: %w", err)
	}
	return nil
}

// Sync implements Journal.
func (j *FileJournal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("coord: journal sync: %w", err)
	}
	return nil
}

// Rewrite implements Journal: the snapshot is written to a temp file
// beside the journal, synced, and renamed over it, and the append
// handle is reopened on the new file.
func (j *FileJournal) Rewrite(recs []*JournalRecord) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("coord: encode journal record: %w", err)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	tmp, err := os.CreateTemp(filepath.Dir(j.path), "."+filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("coord: journal rewrite: %w", err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(buf.Bytes())
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), j.path)
	}
	if err != nil {
		return fmt.Errorf("coord: journal rewrite: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("coord: journal reopen: %w", err)
	}
	j.f.Close()
	j.f = f
	return nil
}

// Close releases the append handle.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
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
			var res *inject.Result
			if rec.decoded != nil {
				res = rec.decoded.res
			}
			rec.Outcome, rec.ResultRef = co.journalOutcomeLocked(rec.Outcome, co.catalog[rec.Index], res)
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
// under its fingerprint. It ensures that it is: an index lookup
// (ResultStore.Has) first, and a Put only on a miss, of res, the
// outcome's decoded result, or when res is nil of o.Result decoded
// here. Callers hold co.mu.
func (co *Coordinator) journalOutcomeLocked(o *Outcome, label string, res *inject.Result) (*Outcome, bool) {
	jo := *o
	if co.results == nil || o.Fingerprint == "" || o.Err != "" {
		return &jo, false
	}
	if !co.results.Has(o.Fingerprint) {
		if res == nil {
			var err error
			if res, err = store.DecodeResult(o.Result); err != nil {
				return &jo, false
			}
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
// heartbeat. Every job phase change goes through setJobLocked, which
// keeps the counts. Callers hold co.mu (or own co exclusively, as
// Restore does).
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
			// A returning id may still hold leases from before it
			// departed; count them once, setJobLocked keeps them after.
			for i := range co.jobs {
				if j := &co.jobs[i]; j.phase == jobClaimed && j.worker == ws.id {
					ws.leases++
				}
			}
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
		if co.jobs[rec.Index].phase == jobDone {
			return fmt.Errorf("claim of job %d, which is done", rec.Index)
		}
		co.setJobLocked(rec.Index, jobRecord{phase: jobClaimed, worker: rec.Worker, expires: time.UnixMilli(rec.ExpiresMillis)})
		co.cur[rec.Worker] = co.world[rec.Index]
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
		co.setJobLocked(rec.Index, jobRecord{phase: jobPending})
		co.requeues++
	case opComplete:
		// The outcome passes the checks a live upload does; the first
		// completion of an index is recorded, every later one is a
		// duplicate.
		idx, o := rec.Index, rec.Outcome
		var res *inject.Result
		if o != nil {
			if label := o.Label(); label != co.catalog[idx] {
				return fmt.Errorf("completion for job %d is labelled %q, catalog names it %q", idx, label, co.catalog[idx])
			}
			if !rec.ResultRef {
				dec := rec.decoded
				if dec == nil {
					dec = &outcomeDecode{}
					dec.res, dec.err = o.Check()
				}
				if errors.Is(dec.err, store.ErrUndecodable) {
					co.logf("coord: outcome for job %d (%s): %v", idx, co.catalog[idx], dec.err)
				} else if dec.err != nil {
					return fmt.Errorf("completion for job %d: %w", idx, dec.err)
				}
				res = dec.res
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
			co.setJobLocked(idx, jobRecord{phase: jobPending})
			co.logf("coord: journal outcome for job %d (%s) references missing cache entry %s; job requeued", idx, co.catalog[idx], o.Fingerprint)
			return nil
		}
		j := jobRecord{phase: jobDone, outcome: o, doneBy: rec.Worker, doneAt: at}
		runs := 0
		if res != nil {
			runs = len(res.Injections)
			j.finds = co.extractFindingsLocked(o, res)
		}
		co.setJobLocked(idx, j)
		if ws != nil {
			ws.Completions++
			ws.RunsDone += runs
		}
		co.doneOrder = append(co.doneOrder, idx)
		co.runsDone += runs
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
		delete(co.cur, ws.id)
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

// outcomeDecode is a completion's store.Outcome.Check, made once.
type outcomeDecode struct {
	res *inject.Result
	err error
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
		if i > 0 && rec.Op == opMeta {
			return nil, fmt.Errorf("coord: journal record %d: unexpected mid-journal meta record", i+1)
		}
		if err := co.applyLocked(co.resolveRef(rec)); err != nil {
			return nil, fmt.Errorf("coord: journal record %d: %w", i+1, err)
		}
	}
	now := co.now()
	for _, ws := range co.workers {
		ws.lastSeen = now
	}
	co.resumed = true
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
func (co *Coordinator) resolveRef(rec *JournalRecord) *JournalRecord {
	if !rec.ResultRef || rec.Outcome == nil || co.results == nil || rec.Outcome.Fingerprint == "" {
		return rec
	}
	res, ok := co.results.Get(rec.Outcome.Fingerprint)
	if !ok {
		return rec
	}
	r, o := *rec, *rec.Outcome
	o.Result, _ = store.EncodeResult(res) // its error is always nil
	r.Outcome, r.ResultRef = &o, false
	return &r
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
		jo, ref := co.journalOutcomeLocked(j.outcome, co.catalog[i], nil)
		recs = append(recs, &JournalRecord{
			Op: opComplete, AtMillis: j.doneAt.UnixMilli(), Worker: j.doneBy, Index: i,
			Outcome: jo, ResultRef: ref,
		})
	}
	// Each worker's claims in its current world come after its others,
	// so the replayed claim fold leaves every leaseholder in the world it
	// was in. A worker with no lease restarts with no current world.
	for _, inCur := range []bool{false, true} {
		for i := range co.jobs {
			j := &co.jobs[i]
			if j.phase != jobClaimed {
				continue
			}
			if w, ok := co.cur[j.worker]; (ok && w == co.world[i]) != inCur {
				continue
			}
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
