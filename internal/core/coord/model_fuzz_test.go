package coord_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// The reference model for FuzzCoordModel: the queue's job phases, its
// workers and campaigns as plain maps and slices, with the lease, GC
// and retention rules written out directly. It shares no code with the
// coordinator beyond the filter matcher.
const (
	modelTTL       = 10 * time.Second
	modelGCAfter   = time.Minute // max(3×TTL, 1min)
	modelRetention = 45 * time.Second
)

var (
	// modelCatalog's worlds hold two cells each, interleaved, so that
	// claiming by world and claiming by lowest index disagree.
	// modelWorld is each label's world, written out by hand.
	modelCatalog = []string{"a/vulnerable", "a/fixed", "a/vulnerable+x", "a/fixed+x", "b/vulnerable", "b/vulnerable+x"}
	modelWorld   = []int{0, 1, 0, 1, 2, 2}
	modelNames   = []string{"alice", "bob", "carol", "dave"}
	modelCamps   = []string{"x", "y", "z"}
	modelFilters = []string{"a*", "*fixed", "b/vulnerable"}
)

const (
	mPending = iota
	mClaimed
	mDone
)

type mJob struct {
	phase    int
	holder   string // lease holder while claimed
	deadline time.Time
	doneBy   string
}

type mWorker struct {
	lastSeen time.Time
	c        coord.WorkerStatus
}

type mCampaign struct {
	spec              coord.CampaignSpec
	member            []bool
	created, finished time.Time
}

type coordModel struct {
	now      time.Time
	jobs     []mJob
	workers  map[string]*mWorker
	order    []string
	byName   map[string]string
	departed coord.DepartedStats
	camps    []*mCampaign // submission order, the default first
	// cur is each worker's current world, the world of its latest
	// grant. journaled is the same map as a restore of the current
	// journal rebuilds it: a compacted journal keeps only the worlds of
	// workers that hold a lease.
	cur, journaled map[string]int

	requeues, duplicates, grants int
}

func newCoordModel(now time.Time, n int) *coordModel {
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	return &coordModel{
		now:       now,
		jobs:      make([]mJob, n),
		workers:   map[string]*mWorker{},
		byName:    map[string]string{},
		cur:       map[string]int{},
		journaled: map[string]int{},
		camps: []*mCampaign{{
			spec:    coord.CampaignSpec{Name: coord.DefaultCampaignName, Note: "full catalog"},
			member:  all,
			created: now,
		}},
	}
}

// progress counts a campaign's member jobs by phase.
func (m *coordModel) progress(c *mCampaign) (jobs, pending, claimed, done int) {
	for i, in := range c.member {
		if in {
			jobs++
			switch m.jobs[i].phase {
			case mPending:
				pending++
			case mClaimed:
				claimed++
			case mDone:
				done++
			}
		}
	}
	return
}

func (m *coordModel) finished(c *mCampaign) bool {
	jobs, _, _, done := m.progress(c)
	return done == jobs
}

// sweep expires leases, folds silent workers into the departed
// aggregate and drops finished campaigns past retention.
func (m *coordModel) sweep() {
	held := map[string]bool{}
	for i := range m.jobs {
		j := &m.jobs[i]
		if j.phase == mClaimed && !j.deadline.After(m.now) {
			if w := m.workers[j.holder]; w != nil {
				w.c.Expiries++
			}
			*j = mJob{}
			m.requeues++
		}
		if j.phase == mClaimed {
			held[j.holder] = true
		}
	}
	var order []string
	for _, id := range m.order {
		w := m.workers[id]
		if held[id] || m.now.Sub(w.lastSeen) < modelGCAfter {
			order = append(order, id)
			continue
		}
		d := &m.departed
		d.Workers++
		d.Claims += w.c.Claims
		d.Renewals += w.c.Renewals
		d.Completions += w.c.Completions
		d.Duplicates += w.c.Duplicates
		d.Expiries += w.c.Expiries
		delete(m.workers, id)
		delete(m.cur, id)
		delete(m.journaled, id)
		if m.byName[w.c.Name] == id {
			delete(m.byName, w.c.Name)
		}
	}
	m.order = order
	camps := m.camps[:1]
	for _, c := range m.camps[1:] {
		if c.finished.IsZero() || m.now.Sub(c.finished) < modelRetention {
			camps = append(camps, c)
		}
	}
	m.camps = camps
}

// touch refreshes a worker's heartbeat and sweeps, as every worker verb
// does; it reports whether the worker is registered.
func (m *coordModel) touch(id string) (*mWorker, bool) {
	w := m.workers[id]
	if w == nil {
		return nil, false
	}
	w.lastSeen = m.now
	m.sweep()
	return w, true
}

func (m *coordModel) claim(id string) (int, coord.ClaimStatus, bool) {
	w, ok := m.touch(id)
	if !ok {
		return 0, 0, false
	}
	if m.finished(m.camps[0]) {
		return 0, coord.ClaimDrained, true
	}
	prio := make([]int, len(m.jobs))
	bestPrio := -1
	for i := range m.jobs {
		if m.jobs[i].phase != mPending {
			continue
		}
		for _, c := range m.camps {
			if c.member[i] && !m.finished(c) && c.spec.Priority > prio[i] {
				prio[i] = c.spec.Priority
			}
		}
		bestPrio = max(bestPrio, prio[i])
	}
	if bestPrio < 0 {
		return 0, coord.ClaimWait, true
	}
	held := map[int]bool{}
	for _, j := range m.jobs {
		if w, ok := m.cur[j.holder]; ok && j.phase == mClaimed && j.holder != id {
			held[w] = true
		}
	}
	own, hasOwn := m.cur[id]
	best := -1
	for _, rule := range []func(i int) bool{
		func(i int) bool { return hasOwn && modelWorld[i] == own },
		func(i int) bool { return !held[modelWorld[i]] },
		func(i int) bool { return true },
	} {
		for i := range m.jobs {
			if m.jobs[i].phase == mPending && prio[i] == bestPrio && rule(i) {
				best = i
				break
			}
		}
		if best >= 0 {
			break
		}
	}
	m.jobs[best] = mJob{phase: mClaimed, holder: id, deadline: m.now.Add(modelTTL)}
	m.cur[id] = modelWorld[best]
	m.journaled[id] = modelWorld[best]
	w.c.Claims++
	m.grants++
	return best, coord.ClaimGranted, true
}

// compacted is worlds as a restore of the compacted snapshot rebuilds
// them: a leaseholder keeps its world when it holds a lease there and
// otherwise gets the world of its highest-index lease; a worker with no
// lease has none.
func (m *coordModel) compacted(worlds map[string]int) map[string]int {
	out := map[string]int{}
	for i, j := range m.jobs {
		if j.phase == mClaimed {
			out[j.holder] = modelWorld[i]
		}
	}
	for i, j := range m.jobs {
		if w, ok := worlds[j.holder]; ok && j.phase == mClaimed && modelWorld[i] == w {
			out[j.holder] = w
		}
	}
	return out
}

// restart models a crash and restore: the live worlds become the
// journal's, optionally compacted once more, and the new journal is the
// compacted snapshot.
func (m *coordModel) restart(twice bool) {
	m.cur = m.journaled
	if twice {
		m.cur = m.compacted(m.cur)
	}
	m.journaled = m.compacted(m.cur)
	// A restart restarts every worker's heartbeat clock.
	for _, w := range m.workers {
		w.lastSeen = m.now
	}
}

func (m *coordModel) renew(id string, indices []int) (renewed, lost []int, ok bool) {
	w, ok := m.touch(id)
	if !ok {
		return nil, nil, false
	}
	for _, i := range indices {
		j := &m.jobs[i]
		switch {
		case j.phase == mClaimed && j.holder == id:
			j.deadline = m.now.Add(modelTTL)
			w.c.Renewals++
			renewed = append(renewed, i)
		case j.phase == mDone && j.doneBy == id:
			renewed = append(renewed, i)
		default:
			lost = append(lost, i)
		}
	}
	return renewed, lost, true
}

func (m *coordModel) complete(id string, idx int) (dup, ok bool) {
	w, ok := m.touch(id)
	if !ok {
		return false, false
	}
	if m.jobs[idx].phase == mDone {
		w.c.Duplicates++
		m.duplicates++
		return true, true
	}
	was := make([]bool, len(m.camps))
	for k, c := range m.camps {
		was[k] = m.finished(c)
	}
	m.jobs[idx] = mJob{phase: mDone, doneBy: id}
	w.c.Completions++
	for k, c := range m.camps {
		if !was[k] && m.finished(c) && c.finished.IsZero() {
			c.finished = m.now
		}
	}
	return false, true
}

// register returns the id a reattaching name must get back, or "" when
// the coordinator mints a fresh one (adopt records it).
func (m *coordModel) register(name string) string {
	m.sweep()
	if id, ok := m.byName[name]; ok {
		m.workers[id].lastSeen = m.now
		return id
	}
	return ""
}

func (m *coordModel) adopt(id, name string) {
	m.workers[id] = &mWorker{lastSeen: m.now, c: coord.WorkerStatus{ID: id, Name: name}}
	m.order = append(m.order, id)
	m.byName[name] = id
}

func (m *coordModel) submit(spec coord.CampaignSpec, catalog []string) (exists bool) {
	m.sweep()
	for _, c := range m.camps {
		if c.spec.Name == spec.Name {
			return true
		}
	}
	c := &mCampaign{spec: spec, member: make([]bool, len(catalog)), created: m.now}
	for i, l := range catalog {
		c.member[i] = sched.MatchLabel(spec.Filter, l)
	}
	if m.finished(c) {
		c.finished = m.now
	}
	m.camps = append(m.camps, c)
	return false
}

func (m *coordModel) campaignStatus(c *mCampaign) coord.CampaignStatus {
	jobs, pending, claimed, done := m.progress(c)
	st := coord.CampaignStatus{
		Name: c.spec.Name, Filter: c.spec.Filter, Priority: c.spec.Priority, Note: c.spec.Note,
		Jobs: jobs, Pending: pending, Claimed: claimed, Done: done,
		State: "running", CreatedMillis: c.created.UnixMilli(),
	}
	if done == jobs {
		st.State = "done"
	}
	if !c.finished.IsZero() {
		st.FinishedMillis = c.finished.UnixMilli()
	}
	return st
}

// stats is what Coordinator.Status must report, clock-derived fields
// aside (see stable).
func (m *coordModel) stats() coord.Status {
	m.sweep()
	def := m.campaignStatus(m.camps[0])
	st := coord.Status{
		Schema: coord.StatusSchemaVersion,
		Jobs:   len(m.jobs), Pending: def.Pending, Claimed: def.Claimed, Done: def.Done,
		Requeues: m.requeues, Expiries: m.requeues, Duplicates: m.duplicates,
		Drained: def.Done == len(m.jobs),
	}
	for _, id := range m.order {
		w := m.workers[id].c
		for i, j := range m.jobs {
			if j.phase == mClaimed && j.holder == id {
				w.ActiveLeases = append(w.ActiveLeases, i)
			}
		}
		st.Workers = append(st.Workers, w)
	}
	if m.departed.Workers > 0 {
		d := m.departed
		st.Departed = &d
	}
	for _, c := range m.camps {
		st.Campaigns = append(st.Campaigns, m.campaignStatus(c))
	}
	return st
}

// FuzzCoordModel drives a journaling coordinator on a fake clock
// through generated interleavings — register and reattach, claim,
// renew, complete and duplicate complete, clock jumps past the lease
// TTL and the worker-GC horizon, campaign submission and retention
// GC, and crash/restart — and checks it against coordModel after every
// step. Each op is two bytes, the op (mod 9: register, claim, renew,
// complete, tick, past TTL, past GC, submit, restart) and its argument
// (the worker, index or campaign it picks). Beyond equality
// with the model it checks the queue's invariants directly: no index
// is recorded twice; a drained queue assembles every index; live plus
// departed completions equal the done jobs and claims equal the grants;
// the worker table stays bounded; and at every restart the live
// coordinator, its restore and restore∘compact∘restore report equal
// Status snapshots. After every step, and after each restore, the
// counts the coordinator folds equal a scan of its jobs (Recount).
// Claims follow the world-affine grant order, so the model
// also tracks each worker's current world across restarts.
func FuzzCoordModel(f *testing.F) {
	f.Add([]byte{
		// One worker claims and completes every job, then the journal is
		// restored and compacted twice: worker counters must not drift.
		0, 0, 1, 0, 3, 0, 1, 0, 3, 0, 1, 0, 3, 0, 1, 0, 3, 0, 1, 0, 3, 0,
		1, 0, 3, 0, 8, 1, 8, 1,
	})
	f.Add([]byte{
		// alice completes a job and departs, bob registers, restart
		// thrice: alice must stay folded into the departed aggregate.
		0, 0, 1, 0, 3, 0, 6, 0, 0, 1, 8, 1, 8, 1, 8, 0,
	})
	f.Add([]byte{
		// Two workers, an expired lease redone by the other, a late
		// duplicate, a prioritised campaign, renewals, restarts mid-run.
		0, 0, 0, 1, 1, 0, 1, 1, 4, 3, 2, 1, 5, 0, 1, 1, 3, 5, 3, 4,
		7, 10, 8, 0, 1, 1, 2, 1, 3, 1, 6, 0, 1, 2, 0, 2, 1, 2, 8, 1, 3, 10,
	})
	f.Add([]byte{
		// Two workers drain by world, with a compacting restart while
		// both hold leases and a plain one after: each keeps its world.
		0, 0, 0, 1, 1, 0, 1, 1, 3, 0, 1, 0, 8, 1, 3, 1, 1, 1, 3, 0, 1, 0,
		8, 0, 3, 1, 1, 1, 3, 0, 3, 1,
	})
	f.Add([]byte{
		// alice moves to a second world while still holding leases in
		// her first, at higher indices; a compacting restart must leave
		// her in the second, so bob starts the third.
		0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 8, 1, 1, 1, 1, 0,
	})

	f.Fuzz(func(t *testing.T, ops []byte) {
		clk := newFakeClock()
		cache := newMemCache()
		opts := func(j coord.Journal) coord.Options {
			return coord.Options{LeaseTTL: modelTTL, Now: clk.Now, Journal: j, Results: cache, Retention: modelRetention}
		}
		outcomes := make([]coord.Outcome, len(modelCatalog))
		for i, label := range modelCatalog {
			name, variant, _ := strings.Cut(label, "/")
			b, err := store.EncodeResult(&inject.Result{Campaign: label})
			if err != nil {
				t.Fatal(err)
			}
			outcomes[i] = coord.Outcome{Name: name, Variant: variant, Result: b, Fingerprint: fakeFingerprint(i)}
		}
		mj := &coord.MemJournal{}
		co := coord.New(modelCatalog, opts(mj))
		m := newCoordModel(clk.Now(), len(modelCatalog))
		ids := map[string]string{} // name -> last id the coordinator gave it
		recorded := map[int]bool{}

		idOf := func(name string) string {
			if id, ok := ids[name]; ok {
				return id
			}
			return "unregistered"
		}
		check := func(step int, st coord.Status) {
			t.Helper()
			if err := co.Recount(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			st = stable(st)
			if want := m.stats(); !reflect.DeepEqual(st, want) {
				t.Fatalf("step %d: stats diverge from the model:\n got %+v\nwant %+v", step, st, want)
			}
			completions, claims := 0, 0
			for _, w := range st.Workers {
				completions += w.Completions
				claims += w.Claims
			}
			if d := st.Departed; d != nil {
				completions += d.Completions
				claims += d.Claims
			}
			if completions != st.Done || claims != m.grants {
				t.Fatalf("step %d: workers account for %d completions / %d claims, queue has %d done / %d granted", step, completions, claims, st.Done, m.grants)
			}
			if len(st.Workers) > len(modelNames) {
				t.Fatalf("step %d: %d worker rows for %d names", step, len(st.Workers), len(modelNames))
			}
			if st.Drained {
				sr, err := co.SuiteResult()
				if err != nil {
					t.Fatalf("step %d: drained queue: %v", step, err)
				}
				for i, c := range sr.Campaigns {
					if c.Job.Label() != modelCatalog[i] || c.Result == nil {
						t.Fatalf("step %d: suite result index %d is %q (result %v)", step, i, c.Job.Label(), c.Result)
					}
				}
			}
		}

		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step]%9, int(ops[step+1])
			name := modelNames[arg%len(modelNames)]
			switch op {
			case 0: // register or reattach
				want := m.register(name)
				id, err := co.Register(name, modelCatalog)
				if err != nil {
					t.Fatalf("step %d: Register(%s): %v", step, name, err)
				}
				switch {
				case want != "" && id != want:
					t.Fatalf("step %d: %s reattached as %s, want %s", step, name, id, want)
				case want == "" && m.workers[id] != nil:
					t.Fatalf("step %d: fresh %s was handed live id %s", step, name, id)
				case want == "":
					m.adopt(id, name)
				}
				ids[name] = id
			case 1: // claim
				wantIdx, wantSt, ok := m.claim(idOf(name))
				idx, st, err := co.Claim(idOf(name))
				if (err == nil) != ok || st != wantSt || (st == coord.ClaimGranted && idx != wantIdx) {
					t.Fatalf("step %d: Claim(%s) = (%d, %v, %v), model (%d, %v, ok %v)", step, name, idx, st, err, wantIdx, wantSt, ok)
				}
			case 2: // renew the worker's leases plus one arbitrary index
				var indices []int
				for i, j := range m.jobs {
					if j.phase == mClaimed && j.holder == idOf(name) {
						indices = append(indices, i)
					}
				}
				indices = append(indices, (arg/4)%len(modelCatalog))
				wantR, wantL, ok := m.renew(idOf(name), indices)
				renewed, lost, err := co.Renew(idOf(name), indices)
				if (err == nil) != ok || !reflect.DeepEqual(renewed, wantR) || !reflect.DeepEqual(lost, wantL) {
					t.Fatalf("step %d: Renew(%s, %v) = (%v, %v, %v), model (%v, %v, ok %v)", step, name, indices, renewed, lost, err, wantR, wantL, ok)
				}
			case 3: // complete a held lease, or any index
				idx := (arg / 8) % len(modelCatalog)
				if (arg/4)%2 == 0 {
					for i, j := range m.jobs {
						if j.phase == mClaimed && j.holder == idOf(name) {
							idx = i
							break
						}
					}
				}
				wantDup, ok := m.complete(idOf(name), idx)
				dup, err := co.Complete(idOf(name), idx, outcomes[idx])
				if (err == nil) != ok || dup != wantDup {
					t.Fatalf("step %d: Complete(%s, %d) = (dup %v, %v), model (dup %v, ok %v)", step, name, idx, dup, err, wantDup, ok)
				}
				if err == nil && !dup {
					if recorded[idx] {
						t.Fatalf("step %d: index %d recorded twice", step, idx)
					}
					recorded[idx] = true
				}
			case 4: // small clock step
				clk.Advance(time.Duration(arg%9+1) * time.Second)
				m.now = clk.Now()
				continue
			case 5: // past the lease TTL
				clk.Advance(modelTTL + time.Second)
				m.now = clk.Now()
				continue
			case 6: // past the worker-GC horizon and campaign retention
				clk.Advance(modelGCAfter + time.Second)
				m.now = clk.Now()
				continue
			case 7: // submit a campaign
				spec := coord.CampaignSpec{
					Name:     modelCamps[arg%len(modelCamps)],
					Filter:   modelFilters[(arg/3)%len(modelFilters)],
					Priority: (arg / 9) % 4,
				}
				exists := m.submit(spec, modelCatalog)
				_, err := co.Submit(spec)
				if exists != errors.Is(err, coord.ErrCampaignExists) || (!exists && err != nil) {
					t.Fatalf("step %d: Submit(%+v) = %v, model exists=%v", step, spec, err, exists)
				}
			case 8: // crash and restart, continuing on one or two restores
				live := co.Status()
				check(step, live)
				j1 := &coord.MemJournal{}
				r1, err := coord.Restore(modelCatalog, opts(j1), mj.Records())
				if err != nil {
					t.Fatalf("step %d: restore: %v", step, err)
				}
				j2 := &coord.MemJournal{}
				r2, err := coord.Restore(modelCatalog, opts(j2), j1.Records())
				if err != nil {
					t.Fatalf("step %d: restore of the compacted journal: %v", step, err)
				}
				for gen, r := range []*coord.Coordinator{r1, r2} {
					if err := r.Recount(); err != nil {
						t.Fatalf("step %d: restore %d: %v", step, gen+1, err)
					}
					if got := stable(r.Status()); !reflect.DeepEqual(got, stable(live)) {
						t.Fatalf("step %d: restore %d stats diverge:\n got %+v\nlive %+v", step, gen+1, got, live)
					}
				}
				co, mj = r1, j1
				if arg%2 == 1 {
					co, mj = r2, j2
				}
				m.restart(arg%2 == 1)
			}
			check(step, co.Status())
		}
	})
}
