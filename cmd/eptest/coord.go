package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/coord"
	"repro/internal/core/obs"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// workerDisplayName resolves the name a -coord-url worker registers
// under: the -worker flag, or host-pid so two workers on one machine
// stay distinguishable in the coordinator report.
func workerDisplayName(flagName string) string {
	if flagName != "" {
		return flagName
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// suiteCatalog builds the suite's job list and label catalog from the
// -matrix/-filter flags. It is THE catalog definition: runSuite runs
// it, runServeCoord serves it, and workers must derive the identical
// list for their registrations to be accepted — which is why there is
// exactly one implementation.
func suiteCatalog(useMatrix bool, filter string) ([]sched.Job, []string, error) {
	jobs := apps.SuiteJobs()
	if useMatrix {
		jobs = matrix.SuiteJobs()
	}
	if filter != "" {
		jobs = sched.FilterJobs(jobs, filter)
		if len(jobs) == 0 {
			return nil, nil, fmt.Errorf("-filter %q selects zero jobs; try a broader glob (see -list, or -matrix labels like \"lpr/vulnerable+nodedup\")", filter)
		}
	}
	catalog := make([]string, len(jobs))
	for i, j := range jobs {
		catalog[i] = j.Label()
	}
	return jobs, catalog, nil
}

// coordJournalPath locates the coordinator's durable-state journal
// inside a store directory.
func coordJournalPath(storeDir string) string {
	return filepath.Join(storeDir, "coord", "journal.jsonl")
}

// runServeCoord serves the campaign coordinator and the result store
// on one listener until the process is terminated: workers dial a
// single -coord-url for claims, leases, completions, AND the shared
// cache. When the queue drains, the merged suite result is written to
// the store as a 1-of-1 shard artifact, so `eptest -merge DIR` renders
// the exact report a single-process run would have printed — the
// coordinator keeps serving afterwards for late duplicate completions,
// campaign submissions, and state queries.
//
// The queue is durable: every claim, renewal, and completion is
// journaled under <store>/coord/, and a restarted coordinator folds
// the journal back — completed work stays completed (results
// cache-resident in the same store), in-flight leases requeue when
// their original deadlines pass, and the fleet rides out the restart
// through its usual failure tolerance. The journal binds to the
// catalog it was written for, so a restart must use the same
// -matrix/-filter flags.
//
// The same listener carries the campaign submission API (POST/GET
// /v1/campaigns, sharing the path space with the cache transport's
// fingerprint routes) and the observability surface: GET /v1/status
// (live queue snapshot as JSON), GET /v1/findings (the canonical
// findings report over completions so far), GET /status
// (self-refreshing HTML page over the same snapshot), and GET /metrics
// (Prometheus text for the queue, store and HTTP metrics) — all
// behind the bearer token.
//
// now is the coordinator's clock, nil meaning time.Now; tests pass a
// fake one to drive lease expiry.
func runServeCoord(addr, dir string, useMatrix bool, filter string, lease, retention time.Duration, token, pprofAddr string, now func() time.Time, stdout, stderr io.Writer) int {
	_, catalog, err := suiteCatalog(useMatrix, filter)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	// Bind before the store and the journal are opened, so an address
	// that cannot be served leaves the -cache directory as it was.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: -serve-coord %s: %v\n", addr, err)
		return 2
	}
	refuse := func(err error) int {
		ln.Close()
		if err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
		}
		return 2
	}
	st, err := store.Open(dir)
	if err != nil {
		return refuse(err)
	}
	reg := obs.NewRegistry()
	if !startPprof(pprofAddr, reg, stdout, stderr) {
		return refuse(nil)
	}
	journal, recs, err := coord.OpenFileJournal(coordJournalPath(st.Dir()))
	if err != nil {
		return refuse(err)
	}
	co, err := coord.Restore(catalog, coord.Options{
		LeaseTTL:  lease,
		Now:       now,
		Metrics:   reg,
		Journal:   journal,
		Results:   st,
		Retention: retention,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "eptest: "+format+"\n", args...)
		},
	}, recs)
	if err != nil {
		return refuse(err)
	}

	// Each subtree is wrapped in the HTTP middleware exactly once — the
	// coordinator protocol here, the campaign API inside CampaignAPI,
	// the store routes inside NewServer — so a request increments
	// eptest_http_requests_total exactly once. The metrics and status
	// endpoints themselves stay unwrapped: scrapes and page refreshes
	// should not drown the traffic they report on.
	mux := http.NewServeMux()
	mux.Handle(coord.Prefix, obs.Middleware(reg, coord.NewServer(co)))
	storeSrv := store.NewServer(st, store.WithServerMetrics(reg))
	campaigns := coord.CampaignAPI(co, storeSrv, reg)
	mux.Handle("/v1/campaigns", campaigns)
	mux.Handle("/v1/campaigns/", campaigns)
	mux.Handle("GET /v1/status", coord.StatusHandler(co))
	mux.Handle("GET /v1/findings", coord.FindingsHandler(co))
	mux.Handle("GET /status", coord.StatusPage(co))
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("/", storeSrv)

	fmt.Fprintf(stdout, "eptest: coordinator listening on %s (%d jobs, lease %s, store %s)\n",
		ln.Addr(), len(catalog), lease, st.Dir())
	if co.Resumed() {
		rst := co.Status()
		fmt.Fprintf(stdout, "eptest: resumed from journal — %d done, %d claimed, %d pending of %d jobs\n",
			rst.Done, rst.Claimed, rst.Pending, rst.Jobs)
	}

	go func() {
		<-co.Drained()
		sr, err := co.SuiteResult()
		if err != nil {
			fmt.Fprintf(stderr, "eptest: coordinator drained but could not assemble the suite result: %v\n", err)
			return
		}
		indices := make([]int, len(catalog))
		for i := range indices {
			indices[i] = i
		}
		if err := st.WriteShard(sched.ShardSpec{K: 1, N: 1}, catalog, indices, sr); err != nil {
			fmt.Fprintf(stderr, "eptest: coordinator drained but could not write the merged artifact: %v\n", err)
			return
		}
		fmt.Fprintf(stdout, "eptest: queue drained (%d jobs); merged artifact written — render it with `eptest -merge %s%s`\n",
			len(catalog), st.Dir(), matrixHint(useMatrix))
	}()

	if err := http.Serve(ln, store.BearerAuth(token, mux)); err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 1
	}
	return 0
}

// matrixHint renders the -matrix suffix for the drain message's merge
// command line.
func matrixHint(useMatrix bool) string {
	if useMatrix {
		return " -matrix"
	}
	return ""
}
