package coord

import (
	"encoding/json"
	"fmt"
)

// Recount scans every job and checks the fold's counts against the
// scan: the queue's claimed and done jobs, each campaign's claimed and
// done members and their findings and violations, and each worker's
// leases. It returns the first disagreement, or nil.
func (co *Coordinator) Recount() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	scan := func(in func(i int) bool) (t tally) {
		for i := range co.jobs {
			if !in(i) {
				continue
			}
			switch j := &co.jobs[i]; j.phase {
			case jobClaimed:
				t.claimed++
			case jobDone:
				t.done++
				if j.finds != nil {
					t.findings += len(j.finds.sigs)
					t.violations += j.finds.traces
				}
			}
		}
		return t
	}
	if got := scan(func(int) bool { return true }); got != co.tally {
		return fmt.Errorf("queue: folded %+v, scanned %+v", co.tally, got)
	}
	for _, name := range co.campOrder {
		c := co.campaigns[name]
		if got := scan(func(i int) bool { return c.member[i] }); got != c.tally {
			return fmt.Errorf("campaign %q: folded %+v, scanned %+v", name, c.tally, got)
		}
	}
	for _, id := range co.order {
		ws := co.workers[id]
		held := 0
		for i := range co.jobs {
			if j := &co.jobs[i]; j.phase == jobClaimed && j.worker == id {
				held++
			}
		}
		if ws.leases != held {
			return fmt.Errorf("worker %s: folded %d leases, scanned %d", id, ws.leases, held)
		}
	}
	return nil
}

// Complete records one job's outcome as the HTTP handler does, with
// the outcome checked here rather than decoded from a request body.
func (co *Coordinator) Complete(workerID string, idx int, out Outcome) (duplicate bool, err error) {
	return co.complete(workerID, idx, out, nil)
}

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
