package coord_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core/coord"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// suiteCatalog builds a small real job slice (the lpr campaigns) and
// its label catalog.
func suiteCatalog(t *testing.T) ([]sched.Job, []string) {
	t.Helper()
	jobs := sched.FilterJobs(apps.SuiteJobs(), "lpr*")
	if len(jobs) == 0 {
		t.Fatal("lpr* selects no jobs")
	}
	catalog := make([]string, len(jobs))
	for i, j := range jobs {
		catalog[i] = j.Label()
	}
	return jobs, catalog
}

// startCoord serves a coordinator over httptest and returns a dialled,
// registered client factory.
func startCoord(t *testing.T, catalog []string, ttl time.Duration) (*coord.Coordinator, *httptest.Server) {
	t.Helper()
	co := coord.New(catalog, coord.Options{LeaseTTL: ttl})
	srv := httptest.NewServer(coord.NewServer(co))
	t.Cleanup(srv.Close)
	return co, srv
}

func register(t *testing.T, url, name string, catalog []string) *coord.Client {
	t.Helper()
	cl, err := coord.Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(name, catalog); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestHTTPRoundTrip drives every endpoint through the real client:
// register, claim, renew, complete, duplicate completion, state.
func TestHTTPRoundTrip(t *testing.T) {
	t.Parallel()
	jobs, catalog := suiteCatalog(t)
	_, srv := startCoord(t, catalog, time.Minute)
	cl := register(t, srv.URL, "rt", catalog)
	if cl.WorkerID() == "" || cl.LeaseTTL() != time.Minute {
		t.Fatalf("register: id %q, ttl %v", cl.WorkerID(), cl.LeaseTTL())
	}

	idx, status, err := cl.Claim()
	if err != nil || status != coord.ClaimGranted || idx != 0 {
		t.Fatalf("claim = (%d, %v, %v)", idx, status, err)
	}
	lost, err := cl.Renew([]int{idx})
	if err != nil || len(lost) != 0 {
		t.Fatalf("renew = (%v, %v)", lost, err)
	}

	// Run the real campaign so the outcome round-trips a real result.
	res, err := inject.Run(jobs[idx].Build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	name, variant, _ := strings.Cut(catalog[idx], "/")
	out := coord.Outcome{Name: name, Variant: variant, Result: b}
	if dup, err := cl.Complete(idx, out); err != nil || dup {
		t.Fatalf("complete = (dup %v, %v)", dup, err)
	}
	if dup, err := cl.Complete(idx, out); err != nil || !dup {
		t.Fatalf("second complete = (dup %v, %v), want duplicate", dup, err)
	}

	st, err := cl.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Jobs != len(catalog) || st.Duplicates != 1 {
		t.Errorf("state = %+v", st)
	}
}

// TestHTTPRejectsMalformed pins the coordinator's input hygiene: junk
// bodies, protocol skew, and unregistered workers are 4xx, never 5xx
// or state corruption.
func TestHTTPRejectsMalformed(t *testing.T) {
	t.Parallel()
	_, catalog := suiteCatalog(t)
	_, srv := startCoord(t, catalog, time.Minute)

	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := map[string]struct {
		path, body string
		want       int
	}{
		"junk register":     {"/v1/coord/register", "{", http.StatusBadRequest},
		"wrong proto":       {"/v1/coord/claim", `{"proto":"eptest-coord/0","worker_id":"w1"}`, http.StatusBadRequest},
		"no worker":         {"/v1/coord/claim", `{"proto":"eptest-coord/3"}`, http.StatusBadRequest},
		"unknown worker":    {"/v1/coord/claim", `{"proto":"eptest-coord/3","worker_id":"w9"}`, http.StatusConflict},
		"negative complete": {"/v1/coord/complete", `{"proto":"eptest-coord/3","worker_id":"w9","index":-1,"outcome":{"name":"x"}}`, http.StatusBadRequest},
		"catalog mismatch":  {"/v1/coord/register", `{"proto":"eptest-coord/3","worker":"w","catalog":["zzz"]}`, http.StatusConflict},
		"empty label":       {"/v1/coord/register", `{"proto":"eptest-coord/3","worker":"w","catalog":[""]}`, http.StatusBadRequest},
	}
	for name, tc := range cases {
		if got := post(tc.path, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", name, got, tc.want)
		}
	}
}

// TestRegisterRefusesOldProtocol pins that a worker speaking
// eptest-coord/2, whose completions carry the clean trace, is refused
// at register, naming both versions, before it claims any job.
func TestRegisterRefusesOldProtocol(t *testing.T) {
	t.Parallel()
	_, catalog := suiteCatalog(t)
	co, srv := startCoord(t, catalog, time.Minute)
	body, err := json.Marshal(coord.RegisterRequest{Proto: "eptest-coord/2", Worker: "old", Catalog: catalog})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/coord/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `"eptest-coord/2"`) || !strings.Contains(string(msg), `"eptest-coord/3"`) {
		t.Fatalf("register at eptest-coord/2 = %d %s, want 400 naming both versions", resp.StatusCode, msg)
	}
	if st := co.Status(); len(st.Workers) != 0 {
		t.Fatalf("the refused worker was admitted: %+v", st.Workers)
	}
}

// TestElasticWorkersKillOneMidRun is the subsystem acceptance test: a
// worker that claims jobs and dies (its source closed without
// completing) loses its leases, a second worker joins mid-run and
// drains the queue, and the coordinator's assembled suite result is
// identical — campaign for campaign, byte for byte through the wire
// codec — to a single-process RunSuite over the same catalog.
func TestElasticWorkersKillOneMidRun(t *testing.T) {
	t.Parallel()
	jobs, catalog := suiteCatalog(t)
	co, srv := startCoord(t, catalog, 300*time.Millisecond)

	// The doomed worker claims two jobs and crashes: no renewals, no
	// completions — exactly what SIGKILL leaves behind.
	doomed := register(t, srv.URL, "doomed", catalog)
	for i := 0; i < 2; i++ {
		if _, status, err := doomed.Claim(); err != nil || status != coord.ClaimGranted {
			t.Fatalf("doomed claim = (%v, %v)", status, err)
		}
	}

	// The survivor joins afterwards and drains everything, waiting out
	// the doomed worker's leases.
	survivor := register(t, srv.URL, "survivor", catalog)
	src, err := coord.NewSource(survivor, jobs)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := sched.RunSuiteFrom(src, sched.SuiteOptions{Workers: 4})
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got.Campaigns) != len(jobs) {
		t.Fatalf("survivor ran %d campaigns, want all %d", len(got.Campaigns), len(jobs))
	}

	select {
	case <-co.Drained():
	case <-time.After(5 * time.Second):
		t.Fatal("queue never drained")
	}
	merged, err := co.SuiteResult()
	if err != nil {
		t.Fatal(err)
	}
	want := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 4})
	if len(merged.Campaigns) != len(want.Campaigns) {
		t.Fatalf("merged %d campaigns, want %d", len(merged.Campaigns), len(want.Campaigns))
	}
	for i := range want.Campaigns {
		wb, err := store.EncodeResult(want.Campaigns[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := store.EncodeResult(merged.Campaigns[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("campaign %d (%s) differs between coordinator merge and direct run", i, catalog[i])
		}
	}
	st := co.Status()
	if st.Requeues < 2 {
		t.Errorf("requeues = %d, want >= 2 (the doomed worker's leases)", st.Requeues)
	}
	if !st.Drained || st.Done != len(catalog) {
		t.Errorf("final state = %+v", st)
	}
}

// TestConcurrentWorkersDrainDisjointly runs several Source-backed
// dispatchers against one coordinator at once and checks every job is
// completed exactly once with no duplicates (nobody crashes, so no
// lease ever expires).
func TestConcurrentWorkersDrainDisjointly(t *testing.T) {
	t.Parallel()
	jobs, catalog := suiteCatalog(t)
	co, srv := startCoord(t, catalog, time.Minute)

	const workers = 3
	var wg sync.WaitGroup
	results := make([]*sched.SuiteResult, workers)
	for w := 0; w < workers; w++ {
		cl := register(t, srv.URL, "par", catalog)
		src, err := coord.NewSource(cl, jobs)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, src *coord.Source) {
			defer wg.Done()
			defer src.Close()
			results[w] = sched.RunSuiteFrom(src, sched.SuiteOptions{Workers: 2})
		}(w, src)
	}
	wg.Wait()

	seen := map[string]int{}
	total := 0
	for _, sr := range results {
		for _, c := range sr.Campaigns {
			seen[c.Job.Label()]++
			total++
		}
	}
	if total != len(catalog) {
		t.Errorf("workers ran %d campaigns total, want %d", total, len(catalog))
	}
	for label, n := range seen {
		if n != 1 {
			t.Errorf("%s ran %d times", label, n)
		}
	}
	st := co.Status()
	if st.Duplicates != 0 || st.Requeues != 0 || !st.Drained {
		t.Errorf("final state = %+v, want clean drain", st)
	}
}
