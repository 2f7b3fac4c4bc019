package coord_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/inject"
	"repro/internal/core/store"
)

// runsOutcome builds a valid completion for catalog index idx whose
// result carries `runs` injection entries, so the status page's
// runs/sec accounting has something to count.
func runsOutcome(t *testing.T, idx, runs int) coord.Outcome {
	t.Helper()
	label := testCatalog[idx]
	name, variant, _ := strings.Cut(label, "/")
	b, err := store.EncodeResult(&inject.Result{
		Campaign:   label,
		Injections: make([]inject.Injection, runs),
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord.Outcome{Name: name, Variant: variant, Result: b}
}

// TestStatusSnapshot drives the queue on the fake clock and pins every
// live field the /v1/status surface reports: phase counts, per-worker
// leases and heartbeat ages, run totals, throughput, and the ETA.
func TestStatusSnapshot(t *testing.T) {
	t.Parallel()
	co, clk, ids := newCoord(t, "alpha", "beta")
	a, b := ids[0], ids[1]

	// Before any completion there is no rate to extrapolate.
	st := co.Status()
	if st.Schema != coord.StatusSchemaVersion {
		t.Fatalf("schema = %q, want %q", st.Schema, coord.StatusSchemaVersion)
	}
	if st.EtaMillis != -1 || st.RunsPerSec != 0 || st.Pending != 4 {
		t.Fatalf("fresh status = %+v, want eta -1, rate 0, 4 pending", st)
	}

	mustClaim(t, co, a, 0)
	mustClaim(t, co, a, 1)
	mustClaim(t, co, b, 2)

	clk.Advance(4 * time.Second)
	if dup, err := co.Complete(a, 0, runsOutcome(t, 0, 8)); err != nil || dup {
		t.Fatalf("Complete(a, 0) = (dup %v, %v)", dup, err)
	}

	st = co.Status()
	if st.Pending != 1 || st.Claimed != 2 || st.Done != 1 {
		t.Fatalf("phases = %d/%d/%d, want 1 pending, 2 claimed, 1 done", st.Pending, st.Claimed, st.Done)
	}
	if st.RunsDone != 8 || st.ElapsedMillis != 4000 {
		t.Fatalf("runs/elapsed = %d/%dms, want 8/4000ms", st.RunsDone, st.ElapsedMillis)
	}
	if st.RunsPerSec != 2 {
		t.Fatalf("rate = %g runs/s, want 2", st.RunsPerSec)
	}
	// 1 job in 4s leaves 3 jobs ≈ 12s.
	if st.EtaMillis != 12000 {
		t.Fatalf("eta = %dms, want 12000", st.EtaMillis)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(st.Workers))
	}
	wa, wb := st.Workers[0], st.Workers[1]
	// The completion refreshed alpha's heartbeat; beta has been silent
	// since its claim at t0.
	if wa.Name != "alpha" || wa.HeartbeatAgeMillis != 0 || len(wa.ActiveLeases) != 1 || wa.ActiveLeases[0] != 1 {
		t.Fatalf("alpha status = %+v, want fresh heartbeat holding lease 1", wa)
	}
	if wb.HeartbeatAgeMillis != 4000 || len(wb.ActiveLeases) != 1 || wb.ActiveLeases[0] != 2 {
		t.Fatalf("beta status = %+v, want 4000ms-old heartbeat holding lease 2", wb)
	}
	if wa.RunsDone != 8 || wb.RunsDone != 0 {
		t.Fatalf("per-worker runs = %d/%d, want 8/0", wa.RunsDone, wb.RunsDone)
	}

	// Both remaining leases (granted at t0, 10s TTL) expire by t11; the
	// snapshot's sweep requeues them, so the page never shows a lease
	// the coordinator would not honour.
	clk.Advance(7 * time.Second)
	st = co.Status()
	if st.Claimed != 0 || st.Pending != 3 || st.Requeues != 2 {
		t.Fatalf("post-expiry status = %+v, want 0 claimed, 3 pending, 2 requeues", st)
	}
	if n := len(st.Workers[0].ActiveLeases) + len(st.Workers[1].ActiveLeases); n != 0 {
		t.Fatalf("active leases after expiry = %d, want 0", n)
	}
	if st.EtaMillis != 33000 {
		t.Fatalf("eta = %dms, want 33000 (1 job per 11s, 3 left)", st.EtaMillis)
	}

	// Jobs 1-3 are pending again; beta re-claims and completes them,
	// its own world's job 2 first.
	for _, idx := range []int{2, 1, 3} {
		mustClaim(t, co, b, idx)
	}
	for idx := 1; idx < 4; idx++ {
		if _, err := co.Complete(b, idx, runsOutcome(t, idx, 2)); err != nil {
			t.Fatal(err)
		}
	}
	st = co.Status()
	if !st.Drained || st.EtaMillis != 0 || st.RunsDone != 14 {
		t.Fatalf("drained status = %+v, want drained, eta 0, 14 runs", st)
	}
}

// TestStatusEndpoints serves the JSON and HTML status surfaces over
// HTTP and checks the wire shapes CI curls mid-run.
func TestStatusEndpoints(t *testing.T) {
	t.Parallel()
	co, _, ids := newCoord(t, "smoke")
	mustClaim(t, co, ids[0], 0)

	mux := http.NewServeMux()
	mux.Handle("GET /v1/status", coord.StatusHandler(co))
	mux.Handle("GET /status", coord.StatusPage(co))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("status content type = %q", ct)
	}
	var st coord.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status JSON does not decode: %v", err)
	}
	if st.Schema != coord.StatusSchemaVersion || st.Jobs != 4 || st.Claimed != 1 || len(st.Workers) != 1 {
		t.Fatalf("status = %+v, want schema %s with 4 jobs, 1 claimed, 1 worker", st, coord.StatusSchemaVersion)
	}

	resp, err = http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("page content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"eptest coordinator", "smoke", `http-equiv="refresh"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("status page missing %q:\n%s", want, body)
		}
	}
}

// TestStatusAfterRestoreShowsNoThroughput pins the restart fix: a
// coordinator that reloaded finished work from its journal has
// observed no throughput itself, so it reports rate 0 and ETA -1 (the
// page's "ETA —") instead of extrapolating from work it never timed.
func TestStatusAfterRestoreShowsNoThroughput(t *testing.T) {
	t.Parallel()
	co, clk, mj, cache, id := journaledCoord(t)
	mustClaim(t, co, id, 0)
	clk.Advance(2 * time.Second)
	if dup, err := co.Complete(id, 0, fakeOutcomeFP(t, 0)); err != nil || dup {
		t.Fatalf("Complete = (dup %v, %v)", dup, err)
	}

	co2 := restore(t, clk, mj, cache)
	clk.Advance(3 * time.Second)
	st := co2.Status()
	if st.Done != 1 {
		t.Fatalf("restored done = %d, want the journaled completion", st.Done)
	}
	if st.RunsPerSec != 0 || st.EtaMillis != -1 {
		t.Fatalf("restored rate/eta = %g/%d, want 0/-1 until this process records a completion", st.RunsPerSec, st.EtaMillis)
	}

	srv := httptest.NewServer(coord.StatusPage(co2))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "ETA —") {
		t.Errorf("restored status page does not render the em-dash ETA:\n%s", body)
	}

	// The first live completion restores the extrapolation.
	mustClaim(t, co2, id, 1)
	if dup, err := co2.Complete(id, 1, fakeOutcomeFP(t, 1)); err != nil || dup {
		t.Fatalf("Complete = (dup %v, %v)", dup, err)
	}
	if st := co2.Status(); st.EtaMillis < 0 {
		t.Errorf("post-completion eta = %d, want live extrapolation", st.EtaMillis)
	}
}
