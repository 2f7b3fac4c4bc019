package sched

import (
	"sync"

	"repro/internal/core/inject"
)

// runTable lets the plans of one dispatcher pass share equivalent
// runs. Two runs are equivalent when their plans share a world
// (inject.ExecPlan.SameWorld) and their run keys are equal; only the
// first is executed, and every other slot receives a copy of its
// Injection. Matrix cells of one program differ only in options that
// select runs (site cuts, dedup, direct-only, indirect-only), so most
// of a matrix's runs repeat a run another cell executes.
//
// A world that only one plan of the pass uses costs one map entry:
// its runs get no table entries and take no shared lock. The world's
// table is built when a second plan of it arrives.
type runTable struct {
	mu sync.Mutex
	// first holds, per Source, the only plan of that world so far.
	first map[string]*jobState
	// worlds holds, per Source, the worlds built on a second plan.
	worlds map[string][]*worldRuns
}

// worldRuns is the run table of one shared world.
type worldRuns struct {
	plan *inject.ExecPlan // the plan that built the table; SameWorld's reference

	mu   sync.Mutex
	runs map[inject.RunKey]*runEntry
}

// runEntry is one executing or executed run. Its outcome lives in the
// owner's out slot; waiters are the slots to fill once it lands.
type runEntry struct {
	owner   *jobState
	idx     int
	done    bool
	waiters []slotRef
}

// slotRef names one run slot of one job.
type slotRef struct {
	js  *jobState
	idx int
}

// join registers a freshly planned job and returns its world's run
// table, or nil when the job runs alone: its campaign declares no
// Source, it is the first plan of its world, or its world differs from
// the first plan's under the same Source (a stale declaration, whose
// runs are not shared).
func (t *runTable) join(js *jobState) *worldRuns {
	src := js.plan.Source()
	if src == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.worlds[src] {
		if w.plan.SameWorld(js.plan) {
			return w
		}
	}
	first, ok := t.first[src]
	if !ok {
		if t.first == nil {
			t.first = make(map[string]*jobState)
		}
		t.first[src] = js
		return nil
	}
	if !first.plan.SameWorld(js.plan) {
		return nil
	}
	delete(t.first, src)
	w := buildWorld(first)
	if t.worlds == nil {
		t.worlds = make(map[string][]*worldRuns)
	}
	t.worlds[src] = append(t.worlds[src], w)
	return w
}

// buildWorld builds a world's run table from its first plan, whose
// runs may be queued, executing or done. Under the first job's lock a
// run is done exactly when its slot is written (runOne sets Point on
// every Injection), and from the moment the table is published on the
// job, each of its runs that finishes settles its entry.
func buildWorld(first *jobState) *worldRuns {
	n := first.plan.NumRuns()
	w := &worldRuns{plan: first.plan, runs: make(map[inject.RunKey]*runEntry, n)}
	entries := make([]runEntry, n)
	first.mu.Lock()
	for i := range entries {
		e := &entries[i]
		e.owner, e.idx, e.done = first, i, first.out[i].Point != ""
		w.runs[first.plan.RunKey(i)] = e
	}
	first.world = w
	first.mu.Unlock()
	return w
}

// claim sorts a joining job's runs: a run whose key is new is entered
// with the job as owner and returned for execution; a run whose key is
// done is copied into the job's slot now; a run whose key is executing
// waits for its owner. It returns the runs to execute and how many
// slots were copied.
func (w *worldRuns) claim(js *jobState) (own []int, copied int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range js.out {
		k := js.plan.RunKey(i)
		e, ok := w.runs[k]
		switch {
		case !ok:
			w.runs[k] = &runEntry{owner: js, idx: i}
			own = append(own, i)
		case e.done:
			// No one else writes this slot; the owner's slot is final.
			js.out[i] = e.owner.out[e.idx]
			copied++
		default:
			e.waiters = append(e.waiters, slotRef{js: js, idx: i})
		}
	}
	return own, copied
}

// settle marks run idx of js done and returns the slots waiting on it.
func (w *worldRuns) settle(js *jobState, idx int) []slotRef {
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.runs[js.plan.RunKey(idx)]
	if e == nil || e.owner != js || e.idx != idx {
		return nil
	}
	e.done = true
	waiters := e.waiters
	e.waiters = nil
	return waiters
}
