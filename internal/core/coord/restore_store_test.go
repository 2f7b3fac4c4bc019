package coord_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/report"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// fleetGeneration serves co and st on one listener, as `eptest
// -serve-coord` does, and drains the queue with one worker built as
// `eptest -all -coord-url` builds it: the coordinator's store is its
// cache. It returns once the worker's uploads have landed.
func fleetGeneration(t *testing.T, co *coord.Coordinator, st *store.Store, jobs []sched.Job, catalog []string, name string) {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(coord.Prefix, coord.NewServer(co))
	mux.Handle("/", store.NewServer(st))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := register(t, srv.URL, name, catalog)
	cache, err := store.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	src, err := coord.NewSource(cl, jobs)
	if err != nil {
		t.Fatal(err)
	}
	sched.RunSuiteFrom(src, sched.SuiteOptions{Workers: 2, Cache: cache})
	src.Close()
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRedoesDamagedStoreEntry pins that the journal's
// index-only existence check stays crash-safe. Store.Has vouches for
// an entry by its index alone, so a completion is journaled by
// reference even if its record is damaged on disk afterwards. A
// restored coordinator must find that out through resolveRef's Get,
// requeue the job, and have it redone and counted once, so the drained
// suite result is still a single-process run's.
func TestRestoreRedoesDamagedStoreEntry(t *testing.T) {
	t.Parallel()
	jobs, catalog := suiteCatalog(t)
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "coord", "journal.jsonl")
	clk := newFakeClock()
	open := func(logf func(string, ...any)) (*coord.Coordinator, *store.Store, *coord.FileJournal) {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		fj, recs, err := coord.OpenFileJournal(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		co, err := coord.Restore(catalog, coord.Options{
			LeaseTTL: time.Minute, Now: clk.Now, Journal: fj, Results: st, Logf: logf,
		}, recs)
		if err != nil {
			t.Fatal(err)
		}
		return co, st, fj
	}

	co, st, fj := open(t.Logf)
	fleetGeneration(t, co, st, jobs, catalog, "first")
	first, err := co.SuiteResult()
	if err != nil {
		t.Fatal(err)
	}
	fj.Close()
	journal, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte(`"result_ref":true`)); n != len(catalog) {
		t.Fatalf("%d of %d completions journaled by reference", n, len(catalog))
	}

	// Damage the body of job 1's only record, leaving its header (and
	// so the index entry Has reads) intact.
	const damaged = 1
	fp := first.Campaigns[damaged].Fingerprint
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	hit := 0
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for i := bytes.Index(b, []byte("\x1e"+fp)); i >= 0; {
			body := i + 1 + 64 + 1 + 8 + 1
			b[body+2] = '!'
			hit++
			next := bytes.Index(b[body:], []byte("\x1e"+fp))
			if next < 0 {
				break
			}
			i = body + next
		}
		if err := os.WriteFile(seg, b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if hit == 0 {
		t.Fatalf("no record of %s found", fp)
	}

	var mu sync.Mutex
	var logged []string
	co2, st2, fj2 := open(func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	defer fj2.Close()
	if !st2.Has(fp) {
		t.Fatal("the damaged record left the index; the test no longer covers Has vouching for it")
	}
	if s := co2.Status(); s.Done != len(catalog)-1 || s.Pending != 1 {
		t.Fatalf("restored %d done / %d pending, want the damaged job alone requeued", s.Done, s.Pending)
	}
	mu.Lock()
	if len(logged) != 1 || !strings.Contains(logged[0], "missing cache entry") || !strings.Contains(logged[0], catalog[damaged]) {
		t.Errorf("restore log = %q, want one missing-cache-entry line for %s", logged, catalog[damaged])
	}
	mu.Unlock()

	fleetGeneration(t, co2, st2, jobs, catalog, "second")
	s := co2.Status()
	if !s.Drained || s.Done != len(catalog) || s.Duplicates != 0 {
		t.Fatalf("after the redo: %+v", s)
	}
	for _, w := range s.Workers {
		if w.Name == "second" && w.Completions != 1 {
			t.Errorf("the second worker completed %d jobs, want the damaged one alone", w.Completions)
		}
	}
	got, err := co2.SuiteResult()
	if err != nil {
		t.Fatal(err)
	}
	want := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 2})
	runs := 0
	for i := range want.Campaigns {
		runs += len(want.Campaigns[i].Result.Injections)
		wb, _ := store.EncodeResult(want.Campaigns[i].Result)
		gb, _ := store.EncodeResult(got.Campaigns[i].Result)
		if !bytes.Equal(wb, gb) {
			t.Errorf("campaign %d (%s) differs from the single-process run", i, catalog[i])
		}
	}
	if report.SuiteRun(got) != report.SuiteRun(want) {
		t.Error("suite report differs from the single-process run")
	}
	if n := co2.Status().RunsDone; n != runs {
		t.Errorf("runs done = %d, want %d (each job counted once)", n, runs)
	}
}
