package coord_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/inject"
)

// memCache is an in-memory coord.ResultStore for journal tests: enough of a
// result store for ref-elided outcomes to round-trip.
type memCache struct {
	mu sync.Mutex
	m  map[string]*inject.Result
}

func newMemCache() *memCache { return &memCache{m: make(map[string]*inject.Result)} }

func (c *memCache) Get(fp string) (*inject.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[fp]
	return r, ok
}

func (c *memCache) Has(fp string) bool {
	_, ok := c.Get(fp)
	return ok
}

func (c *memCache) Put(fp, label string, res *inject.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[fp] = res
	return nil
}

// fakeFingerprint fabricates a 64-hex fingerprint distinct per index.
func fakeFingerprint(idx int) string {
	return strings.Repeat(fmt.Sprintf("%02x", idx+1), 32)
}

// fakeOutcomeFP is fakeOutcome with a cache fingerprint attached, so
// the journal can elide the result bytes.
func fakeOutcomeFP(t testing.TB, idx int) coord.Outcome {
	t.Helper()
	o := fakeOutcome(t, idx)
	o.Fingerprint = fakeFingerprint(idx)
	return o
}

// journaledCoord builds a journaling coordinator on a fake clock with
// one registered worker, plus the journal and cache behind it.
func journaledCoord(t *testing.T) (*coord.Coordinator, *fakeClock, *coord.MemJournal, *memCache, string) {
	t.Helper()
	clk := newFakeClock()
	mj := &coord.MemJournal{}
	cache := newMemCache()
	co := coord.New(testCatalog, coord.Options{
		LeaseTTL: 10 * time.Second, Now: clk.Now, Journal: mj, Results: cache,
	})
	id, err := co.Register("alice", testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	return co, clk, mj, cache, id
}

// restore replays a journal into a fresh coordinator sharing the same
// clock and cache.
func restore(t *testing.T, clk *fakeClock, mj *coord.MemJournal, cache *memCache) *coord.Coordinator {
	t.Helper()
	co, err := coord.Restore(testCatalog, coord.Options{
		LeaseTTL: 10 * time.Second, Now: clk.Now, Journal: &coord.MemJournal{}, Results: cache,
	}, mj.Records())
	if err != nil {
		t.Fatal(err)
	}
	if !co.Resumed() {
		t.Fatal("restored coordinator does not report Resumed")
	}
	return co
}

// TestJournalReplayResumes pins the durability core: a coordinator
// rebuilt from its journal carries completed work, worker identity and
// counters, and hands out exactly the jobs that were still open.
func TestJournalReplayResumes(t *testing.T) {
	t.Parallel()
	co, clk, mj, cache, id := journaledCoord(t)
	mustClaim(t, co, id, 0)
	mustClaim(t, co, id, 1)
	if dup, err := co.Complete(id, 0, fakeOutcomeFP(t, 0)); err != nil || dup {
		t.Fatalf("Complete = (dup %v, %v)", dup, err)
	}

	co2 := restore(t, clk, mj, cache)
	st := co2.Status()
	if st.Done != 1 || st.Claimed != 1 || st.Pending != 2 {
		t.Fatalf("restored stats = %d done / %d claimed / %d pending, want 1/1/2", st.Done, st.Claimed, st.Pending)
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != id || st.Workers[0].Name != "alice" {
		t.Fatalf("restored workers = %+v, want the original alice row", st.Workers)
	}
	if w := st.Workers[0]; w.Claims != 2 || w.Completions != 1 {
		t.Errorf("restored alice counters = %+v, want 2 claims / 1 completion", w)
	}
	// Job 1's lease is still live, so the next claim is job 2.
	mustClaim(t, co2, id, 2)

	// Reattach by name across the restart: the same worker name gets its
	// old id back, and a new name mints an id beyond every restored one.
	if got, err := co2.Register("alice", testCatalog); err != nil || got != id {
		t.Errorf("re-register alice = (%q, %v), want (%q, nil)", got, err, id)
	}
	fresh, err := co2.Register("bob", testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == id {
		t.Errorf("bob was handed alice's id %q", fresh)
	}
}

// TestJournalInFlightLeaseRequeues pins lease recovery across a
// restart: a restored in-flight lease keeps its original absolute
// deadline — intact before it, requeued at the first sweep after it.
func TestJournalInFlightLeaseRequeues(t *testing.T) {
	t.Parallel()
	co, clk, mj, cache, id := journaledCoord(t)
	mustClaim(t, co, id, 0) // expires at t0+10s

	clk.Advance(5 * time.Second)
	co2 := restore(t, clk, mj, cache)
	bob, err := co2.Register("bob", testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	// 5s in: the restored lease is still live, bob gets job 1.
	mustClaim(t, co2, bob, 1)
	// Past the original deadline: job 0 requeues and bob picks it up.
	clk.Advance(6 * time.Second)
	mustClaim(t, co2, bob, 0)
	if st := co2.Status(); st.Requeues != 1 {
		t.Errorf("requeues = %d, want 1 (the restored lease expiring)", st.Requeues)
	}
}

// TestJournalDuplicateAcrossRestart pins first-write-wins across
// process boundaries: a completion recorded before the restart turns
// the same completion after it into a discarded duplicate.
func TestJournalDuplicateAcrossRestart(t *testing.T) {
	t.Parallel()
	co, clk, mj, cache, id := journaledCoord(t)
	mustClaim(t, co, id, 0)
	if dup, err := co.Complete(id, 0, fakeOutcomeFP(t, 0)); err != nil || dup {
		t.Fatalf("Complete = (dup %v, %v)", dup, err)
	}

	co2 := restore(t, clk, mj, cache)
	dup, err := co2.Complete(id, 0, fakeOutcomeFP(t, 0))
	if err != nil || !dup {
		t.Fatalf("post-restart Complete = (dup %v, %v), want a discarded duplicate", dup, err)
	}
	if st := co2.Status(); st.Duplicates != 1 || st.Done != 1 {
		t.Errorf("stats = %d duplicates / %d done, want 1/1", st.Duplicates, st.Done)
	}
}

// TestJournalRefElision pins the storage story: a completion whose
// result is cache-resident journals a reference, not the bytes, and the
// restore re-encodes the identical outcome from the cache — the merged
// suite result survives a restart byte-for-byte.
func TestJournalRefElision(t *testing.T) {
	t.Parallel()
	co, clk, mj, cache, id := journaledCoord(t)
	for i := range testCatalog {
		mustClaim(t, co, id, i)
		if dup, err := co.Complete(id, i, fakeOutcomeFP(t, i)); err != nil || dup {
			t.Fatalf("Complete(%d) = (dup %v, %v)", i, dup, err)
		}
	}
	for _, rec := range mj.Records() {
		if rec.Op == "complete" {
			if !rec.ResultRef || rec.Outcome == nil || len(rec.Outcome.Result) != 0 {
				t.Fatalf("complete record did not elide the cached result: %+v", rec)
			}
		}
	}

	want, err := co.SuiteResult()
	if err != nil {
		t.Fatal(err)
	}
	co2 := restore(t, clk, mj, cache)
	select {
	case <-co2.Drained():
	default:
		t.Fatal("fully completed journal did not restore as drained")
	}
	got, err := co2.SuiteResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Campaigns, want.Campaigns) {
		t.Errorf("restored suite result differs from the original:\n%+v\nvs\n%+v", got.Campaigns, want.Campaigns)
	}
}

// TestJournalMissingCacheEntryRequeues pins the degraded path: a
// ref-elided outcome whose cache entry has vanished cannot be restored,
// so the job goes back to pending — consistent, just redone.
func TestJournalMissingCacheEntryRequeues(t *testing.T) {
	t.Parallel()
	co, clk, mj, _, id := journaledCoord(t)
	mustClaim(t, co, id, 0)
	if dup, err := co.Complete(id, 0, fakeOutcomeFP(t, 0)); err != nil || dup {
		t.Fatalf("Complete = (dup %v, %v)", dup, err)
	}

	var logged []string
	empty := newMemCache()
	co2, err := coord.Restore(testCatalog, coord.Options{
		LeaseTTL: 10 * time.Second, Now: clk.Now, Results: empty,
		Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	}, mj.Records())
	if err != nil {
		t.Fatal(err)
	}
	if st := co2.Status(); st.Done != 0 || st.Pending != len(testCatalog) {
		t.Errorf("stats = %d done / %d pending, want the orphaned job requeued (0/%d)", st.Done, st.Pending, len(testCatalog))
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "missing cache entry") {
		t.Errorf("missing cache entry was not logged: %q", logged)
	}
}

// TestJournalCatalogMismatchRejected pins the identity check: a journal
// replays only against the catalog it was written for.
func TestJournalCatalogMismatchRejected(t *testing.T) {
	t.Parallel()
	_, clk, mj, cache, _ := journaledCoord(t)
	other := []string{"x/vulnerable", "x/fixed"}
	if _, err := coord.Restore(other, coord.Options{Now: clk.Now, Results: cache}, mj.Records()); err == nil {
		t.Fatal("Restore accepted a journal written for a different catalog")
	}
}

// TestJournalOldSchemaRefused pins that restore refuses a journal of
// the schema before eptest-coordlog/2, whose inline results carry the
// clean trace the campaign encoding no longer has, with the message
// that tells the operator what to do. Without the refusal such a job
// would restore as done with no result and fail only at the drain.
func TestJournalOldSchemaRefused(t *testing.T) {
	t.Parallel()
	co, clk, mj, cache, alice := journaledCoord(t)
	mustClaim(t, co, alice, 0)
	if dup, err := co.Complete(alice, 0, fakeOutcome(t, 0)); err != nil || dup {
		t.Fatalf("Complete = (dup %v, %v)", dup, err)
	}
	recs := mj.Records()
	restore(t, clk, mj, cache)

	// The same journal as a version-1 coordinator wrote it.
	old := make([]*coord.JournalRecord, len(recs))
	for i, r := range recs {
		c := *r
		if c.Op == "meta" {
			c.Schema = "eptest-coordlog/1"
		}
		if c.Outcome != nil {
			o := *c.Outcome
			o.Result = bytes.Replace(o.Result, []byte(`,"total_sites"`), []byte(`,"clean_trace":[],"total_sites"`), 1)
			c.Outcome = &o
		}
		old[i] = &c
	}
	_, err := coord.Restore(testCatalog, coord.Options{Now: clk.Now, Results: cache}, old)
	if err == nil || !strings.Contains(err.Error(), `journal schema "eptest-coordlog/1"`) || !strings.Contains(err.Error(), "move the journal aside") {
		t.Fatalf("Restore of a version-1 journal = %v, want the schema refusal", err)
	}
}

// TestJournalMetaExpiriesIgnored pins the meta record's form: it
// carries the requeue total once, with no "expiries" repeat, and a
// journal written when meta still repeated it restores unchanged.
func TestJournalMetaExpiriesIgnored(t *testing.T) {
	t.Parallel()
	co, clk, mj, cache, alice := journaledCoord(t)
	mustClaim(t, co, alice, 0)
	clk.Advance(11 * time.Second)
	mustClaim(t, co, alice, 0) // the sweep requeues the expired lease first
	compacted := &coord.MemJournal{}
	if _, err := coord.Restore(testCatalog, coord.Options{LeaseTTL: 10 * time.Second, Now: clk.Now, Journal: compacted, Results: cache}, mj.Records()); err != nil {
		t.Fatal(err)
	}

	var lines [][]byte
	for _, r := range compacted.Records() {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Op == "meta" {
			if r.Requeues != 1 || bytes.Contains(b, []byte(`"expiries"`)) {
				t.Fatalf("meta record %s, want requeues 1 and no expiries", b)
			}
			b = bytes.Replace(b, []byte(`"requeues":1,`), []byte(`"requeues":1,"expiries":1,`), 1)
		}
		lines = append(lines, b)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fj, old, err := coord.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	if !bytes.Contains(lines[0], []byte(`"expiries":1`)) {
		t.Fatalf("old-form meta record %s carries no expiries", lines[0])
	}
	opt := coord.Options{LeaseTTL: 10 * time.Second, Now: clk.Now, Results: cache}
	want, err := coord.Restore(testCatalog, opt, compacted.Records())
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Restore(testCatalog, opt, old)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := stable(got.Status()), stable(want.Status()); !reflect.DeepEqual(g, w) {
		t.Errorf("journal with meta expiries restores to\n%+v\nwant\n%+v", g, w)
	}
}

// TestJournalCampaignsSurviveRestart pins named-campaign durability: a
// submitted campaign's spec, progress, and finished state all replay.
func TestJournalCampaignsSurviveRestart(t *testing.T) {
	t.Parallel()
	co, clk, mj, cache, id := journaledCoord(t)
	if _, err := co.Submit(coord.CampaignSpec{Name: "a-only", Filter: "a*", Priority: 5, Note: "focus"}); err != nil {
		t.Fatal(err)
	}
	// Priority pulls the a/* jobs (indices 0, 1) ahead of the rest.
	mustClaim(t, co, id, 0)
	if dup, err := co.Complete(id, 0, fakeOutcomeFP(t, 0)); err != nil || dup {
		t.Fatalf("Complete = (dup %v, %v)", dup, err)
	}

	co2 := restore(t, clk, mj, cache)
	cs, ok := co2.Campaign("a-only")
	if !ok {
		t.Fatal("campaign a-only did not survive the restart")
	}
	if cs.Filter != "a*" || cs.Priority != 5 || cs.Note != "focus" || cs.Jobs != 2 || cs.Done != 1 || cs.State != "running" {
		t.Errorf("restored campaign = %+v", cs)
	}
	// The restored queue keeps the campaign's priority: next claim is
	// the remaining a/* job.
	mustClaim(t, co2, id, 1)
}

// TestWorkerChurnBounded pins the churn fix: two hundred workers that
// each join, claim, and vanish leave a bounded table — departed rows
// fold into one aggregate instead of accumulating forever.
func TestWorkerChurnBounded(t *testing.T) {
	t.Parallel()
	clk := newFakeClock()
	co := coord.New(testCatalog, coord.Options{LeaseTTL: 10 * time.Second, Now: clk.Now})
	for i := 0; i < 200; i++ {
		id, err := co.Register(fmt.Sprintf("ephemeral-%d", i), testCatalog)
		if err != nil {
			t.Fatal(err)
		}
		if _, status, err := co.Claim(id); err != nil || status != coord.ClaimGranted {
			t.Fatalf("cycle %d: Claim = (%v, %v)", i, status, err)
		}
		// Past the lease TTL and the worker-GC horizon: the next
		// Register's sweep requeues the abandoned lease and retires the
		// silent worker.
		clk.Advance(61 * time.Second)
	}
	st := co.Status()
	if len(st.Workers) > 2 {
		t.Errorf("worker table grew to %d rows under churn, want it bounded", len(st.Workers))
	}
	if st.Departed == nil || st.Departed.Workers < 198 {
		t.Fatalf("departed aggregate = %+v, want ≥198 workers folded in", st.Departed)
	}
	if st.Departed.Claims < 198 || st.Departed.Expiries < 198 {
		t.Errorf("departed counters = %+v, want the folded claims and expiries", st.Departed)
	}
}

// TestCompactionKeepsDepartedWorkersGone pins compaction against worker
// resurrection: a worker folded into the departed aggregate after
// completing a job must stay folded through any number of restores.
// The compacted journal still names it on its completion record, and
// that record must neither recreate its row nor count its completion
// a second time.
func TestCompactionKeepsDepartedWorkersGone(t *testing.T) {
	t.Parallel()
	co, clk, mj, cache, alice := journaledCoord(t)
	mustClaim(t, co, alice, 0)
	if dup, err := co.Complete(alice, 0, fakeOutcomeFP(t, 0)); err != nil || dup {
		t.Fatalf("Complete = (dup %v, %v)", dup, err)
	}
	// Alice goes silent past the worker-GC horizon; bob's registration
	// sweeps her into the departed aggregate.
	clk.Advance(61 * time.Second)
	if _, err := co.Register("bob", testCatalog); err != nil {
		t.Fatal(err)
	}
	want := stable(co.Status())
	if len(want.Workers) != 1 || want.Departed == nil || want.Departed.Workers != 1 || want.Departed.Completions != 1 {
		t.Fatalf("live stats = workers %+v, departed %+v; want bob live and alice departed with 1 completion", want.Workers, want.Departed)
	}
	recs := mj.Records()
	for gen := 1; gen <= 3; gen++ {
		next := &coord.MemJournal{}
		r, err := coord.Restore(testCatalog, coord.Options{
			LeaseTTL: 10 * time.Second, Now: clk.Now, Journal: next, Results: cache,
		}, recs)
		if err != nil {
			t.Fatalf("restore %d: %v", gen, err)
		}
		got := stable(r.Status())
		if !reflect.DeepEqual(got.Workers, want.Workers) || !reflect.DeepEqual(got.Departed, want.Departed) {
			t.Fatalf("restore %d: workers %+v, departed %+v; want workers %+v, departed %+v",
				gen, got.Workers, got.Departed, want.Workers, want.Departed)
		}
		recs = next.Records()
	}
}

// TestRestoreRejectsInvalidCompletion pins that replay checks a
// completion the way a live upload is checked: a journal completion
// whose label disagrees with the catalog, or whose result is not JSON,
// fails the restore and names the offending record instead of
// draining the queue with a result SuiteResult cannot assemble.
func TestRestoreRejectsInvalidCompletion(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		out  coord.Outcome
	}{
		{"mislabelled", coord.Outcome{Name: "zzz", Variant: "q", Err: "boom"}},
		{"result not JSON", coord.Outcome{Name: "a", Variant: "vulnerable", Result: []byte("{")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, clk, mj, cache, alice := journaledCoord(t)
			recs := mj.Records() // meta, register
			out := tc.out
			recs = append(recs, &coord.JournalRecord{
				Op: "complete", AtMillis: clk.Now().UnixMilli(), Worker: alice, Index: 0, Outcome: &out,
			})
			_, err := coord.Restore(testCatalog, coord.Options{LeaseTTL: 10 * time.Second, Now: clk.Now, Results: cache}, recs)
			if err == nil || !strings.Contains(err.Error(), "record 3") {
				t.Fatalf("Restore = %v, want an error naming record 3", err)
			}
		})
	}
}

// TestRestoreReadsOldSnapshotOrder pins compatibility with journals
// compacted by earlier binaries, which wrote worker rows first with
// counters net of the increments the job records after them re-add:
// replaying that order yields the same absolute counters.
func TestRestoreReadsOldSnapshotOrder(t *testing.T) {
	t.Parallel()
	co, clk, mj, cache, alice := journaledCoord(t)
	mustClaim(t, co, alice, 0)
	mustClaim(t, co, alice, 1)
	if dup, err := co.Complete(alice, 0, fakeOutcomeFP(t, 0)); err != nil || dup {
		t.Fatalf("Complete = (dup %v, %v)", dup, err)
	}
	want := stable(co.Status())

	at := clk.Now().UnixMilli()
	o := fakeOutcomeFP(t, 0)
	o.Result = nil
	old := []*coord.JournalRecord{
		mj.Records()[0],
		{Op: "register", AtMillis: at, Worker: alice, WorkerName: "alice", Counters: &coord.JournalCounters{Claims: 1}},
		{Op: "claim", AtMillis: at, Worker: alice, Index: 1, ExpiresMillis: clk.Now().Add(10 * time.Second).UnixMilli()},
		{Op: "complete", AtMillis: at, Worker: alice, Index: 0, Outcome: &o, ResultRef: true},
	}
	r, err := coord.Restore(testCatalog, coord.Options{LeaseTTL: 10 * time.Second, Now: clk.Now, Results: cache}, old)
	if err != nil {
		t.Fatal(err)
	}
	if got := stable(r.Status()); !reflect.DeepEqual(got, want) {
		t.Errorf("old-order snapshot restores to\n%+v\nwant\n%+v", got, want)
	}
}
