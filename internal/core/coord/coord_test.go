package coord_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// fakeClock is a hand-driven clock for deterministic lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testCatalog is a four-job catalog; outcomes for it are fabricated
// with fakeOutcome.
var testCatalog = []string{"a/vulnerable", "a/fixed", "b/vulnerable", "b/fixed"}

// fakeOutcome builds a valid completion for catalog index idx.
func fakeOutcome(t testing.TB, idx int) coord.Outcome {
	t.Helper()
	label := testCatalog[idx]
	name, variant, _ := strings.Cut(label, "/")
	b, err := store.EncodeResult(&inject.Result{Campaign: label})
	if err != nil {
		t.Fatal(err)
	}
	return coord.Outcome{Name: name, Variant: variant, Result: b}
}

// newCoord builds a coordinator on a fake clock with a 10s lease and
// one registered worker per name.
func newCoord(t *testing.T, names ...string) (*coord.Coordinator, *fakeClock, []string) {
	t.Helper()
	clk := newFakeClock()
	co := coord.New(testCatalog, coord.Options{LeaseTTL: 10 * time.Second, Now: clk.Now})
	ids := make([]string, len(names))
	for i, n := range names {
		id, err := co.Register(n, testCatalog)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return co, clk, ids
}

// mustClaim claims and asserts the expected index.
func mustClaim(t *testing.T, co *coord.Coordinator, worker string, wantIdx int) {
	t.Helper()
	idx, status, err := co.Claim(worker)
	if err != nil || status != coord.ClaimGranted || idx != wantIdx {
		t.Fatalf("Claim(%s) = (%d, %v, %v), want (%d, granted, nil)", worker, idx, status, err, wantIdx)
	}
}

// TestClaimExpiryRequeues pins the crash-recovery core: a lease that
// is never renewed expires, and the job goes back to the queue for the
// next claimer.
func TestClaimExpiryRequeues(t *testing.T) {
	t.Parallel()
	co, clk, ids := newCoord(t, "crasher", "drainer")
	a, b := ids[0], ids[1]

	mustClaim(t, co, a, 0)
	mustClaim(t, co, a, 1)
	mustClaim(t, co, b, 2)

	// Just inside the TTL nothing has expired: the next claim is job 3.
	clk.Advance(9 * time.Second)
	mustClaim(t, co, b, 3)
	// b finishes job 2 before its own (unrenewed) lease runs out.
	if dup, err := co.Complete(b, 2, fakeOutcome(t, 2)); err != nil || dup {
		t.Fatalf("Complete(b, 2) = (dup %v, %v)", dup, err)
	}

	// Worker a goes silent past its TTL; both its jobs requeue and b
	// picks them up, lowest index first.
	clk.Advance(2 * time.Second)
	mustClaim(t, co, b, 0)
	mustClaim(t, co, b, 1)

	st := co.Stats()
	if st.Requeues != 2 || st.Expiries != 2 {
		t.Errorf("requeues/expiries = %d/%d, want 2/2", st.Requeues, st.Expiries)
	}
	if w := st.Workers[0]; w.Expiries != 2 || w.Claims != 2 {
		t.Errorf("crasher stats = %+v, want 2 expiries over 2 claims", w)
	}
}

// TestRenewExtendsLease pins the heartbeat: a renewed lease survives
// past the original TTL, an unrenewed one does not.
func TestRenewExtendsLease(t *testing.T) {
	t.Parallel()
	co, clk, ids := newCoord(t, "steady", "thief")
	a, b := ids[0], ids[1]

	mustClaim(t, co, a, 0)
	mustClaim(t, co, a, 1)
	clk.Advance(8 * time.Second)

	// Renew only job 0; both leases are currently live.
	renewed, lost, err := co.Renew(a, []int{0, 1})
	if err != nil || len(lost) != 0 || len(renewed) != 2 {
		t.Fatalf("Renew = (%v, %v, %v), want both renewed", renewed, lost, err)
	}
	// Renew resets both deadlines... advance past the renewed TTL too.
	clk.Advance(11 * time.Second)
	mustClaim(t, co, b, 0) // everything expired again

	// A fresh claim renewed at half-TTL stays held.
	mustClaim(t, co, b, 1)
	clk.Advance(5 * time.Second)
	if _, lost, _ := co.Renew(b, []int{1}); len(lost) != 0 {
		t.Fatalf("lease lost despite renewal at half TTL: %v", lost)
	}
	clk.Advance(6 * time.Second) // 11s after claim, 6s after renew: still live
	if _, lost, _ := co.Renew(b, []int{1}); len(lost) != 0 {
		t.Fatalf("renewed lease expired at original deadline: %v", lost)
	}
}

// TestRenewReportsExpiredLeases pins the other half of the heartbeat
// contract: a lease that expired (or was never the caller's) comes
// back as lost, not renewed.
func TestRenewReportsExpiredLeases(t *testing.T) {
	t.Parallel()
	co, clk, ids := newCoord(t, "slow", "fast")
	a, b := ids[0], ids[1]

	mustClaim(t, co, a, 0)
	clk.Advance(11 * time.Second) // lease expires and requeues
	mustClaim(t, co, b, 0)        // reclaimed by b

	renewed, lost, err := co.Renew(a, []int{0})
	if err != nil || len(renewed) != 0 || len(lost) != 1 || lost[0] != 0 {
		t.Fatalf("Renew(a) = (%v, %v, %v), want job 0 lost", renewed, lost, err)
	}
	// b's own renewal still works.
	if renewed, _, _ := co.Renew(b, []int{0}); len(renewed) != 1 {
		t.Fatalf("holder's renewal failed")
	}
}

// TestCompleteFirstWriteWins pins duplicate resolution: when a slow
// worker's lease expires and another worker redoes the job, whichever
// completion lands first is recorded and every later one is discarded
// as a duplicate — in both orderings.
func TestCompleteFirstWriteWins(t *testing.T) {
	t.Parallel()
	co, clk, ids := newCoord(t, "slow", "fast")
	a, b := ids[0], ids[1]

	// Job 0: a claims, expires, b reclaims and completes first; a's
	// late completion is a duplicate.
	mustClaim(t, co, a, 0)
	clk.Advance(11 * time.Second)
	mustClaim(t, co, b, 0)
	if dup, err := co.Complete(b, 0, fakeOutcome(t, 0)); err != nil || dup {
		t.Fatalf("first completion = (dup %v, %v)", dup, err)
	}
	if dup, err := co.Complete(a, 0, fakeOutcome(t, 0)); err != nil || !dup {
		t.Fatalf("late completion = (dup %v, %v), want duplicate", dup, err)
	}

	// Job 1: a claims, expires, b reclaims — but a finishes first
	// anyway. First write wins regardless of who holds the lease, so
	// a's result is recorded and b's is the duplicate.
	mustClaim(t, co, a, 1)
	clk.Advance(11 * time.Second)
	mustClaim(t, co, b, 1)
	if dup, err := co.Complete(a, 1, fakeOutcome(t, 1)); err != nil || dup {
		t.Fatalf("expired holder's first completion = (dup %v, %v), want accepted", dup, err)
	}
	if dup, err := co.Complete(b, 1, fakeOutcome(t, 1)); err != nil || !dup {
		t.Fatalf("lease holder's late completion = (dup %v, %v), want duplicate", dup, err)
	}

	st := co.Stats()
	if st.Duplicates != 2 || st.Done != 2 {
		t.Errorf("duplicates/done = %d/%d, want 2/2", st.Duplicates, st.Done)
	}
}

// TestDrainAndSuiteResult pins the terminal state: claims report
// drained once every job is done, Drained() fires exactly then, and
// SuiteResult assembles outcomes in catalog order.
func TestDrainAndSuiteResult(t *testing.T) {
	t.Parallel()
	co, _, ids := newCoord(t, "w")
	w := ids[0]

	if _, err := co.SuiteResult(); err == nil {
		t.Fatal("SuiteResult succeeded before the queue drained")
	}
	select {
	case <-co.Drained():
		t.Fatal("Drained() closed with the whole queue pending")
	default:
	}
	sr := suiteResultAfterDraining(t, co, w)
	for i, c := range sr.Campaigns {
		if c.Err != nil || c.Result == nil {
			t.Fatalf("campaign %d: err %v, result %v", i, c.Err, c.Result)
		}
		if c.Result.Campaign != testCatalog[i] {
			t.Errorf("campaign %d result is %q, want %q", i, c.Result.Campaign, testCatalog[i])
		}
	}
	// The queue stays drained for late joiners.
	late, err := co.Register("late", testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	if _, status, err := co.Claim(late); err != nil || status != coord.ClaimDrained {
		t.Errorf("late claim = (%v, %v), want drained", status, err)
	}
}

// TestRegisterCatalogMismatch pins the admission check: a worker built
// with different flags (shorter, reordered, or renamed catalog) is
// rejected at register time.
func TestRegisterCatalogMismatch(t *testing.T) {
	t.Parallel()
	co, _, _ := newCoord(t)
	if _, err := co.Register("short", testCatalog[:2]); err == nil {
		t.Error("short catalog accepted")
	}
	swapped := append([]string(nil), testCatalog...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := co.Register("swapped", swapped); err == nil {
		t.Error("reordered catalog accepted")
	}
	if _, err := co.Register("ok", testCatalog); err != nil {
		t.Errorf("matching catalog rejected: %v", err)
	}
}

// TestUnknownWorkerRejected pins that every verb demands registration.
func TestUnknownWorkerRejected(t *testing.T) {
	t.Parallel()
	co, _, _ := newCoord(t)
	if _, _, err := co.Claim("w99"); err == nil {
		t.Error("claim from unregistered worker accepted")
	}
	if _, _, err := co.Renew("w99", []int{0}); err == nil {
		t.Error("renew from unregistered worker accepted")
	}
	if _, err := co.Complete("w99", 0, coord.Outcome{Name: "a", Variant: "vulnerable"}); err == nil {
		t.Error("complete from unregistered worker accepted")
	}
}

// TestCompleteValidation pins the poisoning guards: an index out of
// range, a label that disagrees with the catalog, and a successful
// outcome without a decodable result are all rejected.
func TestCompleteValidation(t *testing.T) {
	t.Parallel()
	co, _, ids := newCoord(t, "w")
	w := ids[0]
	mustClaim(t, co, w, 0)

	if _, err := co.Complete(w, 99, fakeOutcome(t, 0)); err == nil {
		t.Error("out-of-range index accepted")
	}
	wrong := fakeOutcome(t, 0)
	wrong.Name = "zzz"
	if _, err := co.Complete(w, 0, wrong); err == nil {
		t.Error("mislabelled outcome accepted")
	}
	noResult := coord.Outcome{Name: "a", Variant: "vulnerable"}
	if _, err := co.Complete(w, 0, noResult); err == nil {
		t.Error("outcome with neither result nor error accepted")
	}
	badResult := coord.Outcome{Name: "a", Variant: "vulnerable", Result: []byte("{")}
	if _, err := co.Complete(w, 0, badResult); err == nil {
		t.Error("undecodable result accepted")
	}
	// A failed campaign needs no result.
	failed := coord.Outcome{Name: "a", Variant: "vulnerable", Err: "planning failed"}
	if dup, err := co.Complete(w, 0, failed); err != nil || dup {
		t.Errorf("failure outcome rejected: (dup %v, %v)", dup, err)
	}
	sr := suiteResultAfterDraining(t, co, w)
	if sr.Campaigns[0].Err == nil || sr.Campaigns[0].Err.Error() != "planning failed" {
		t.Errorf("campaign 0 error = %v, want the recorded planning failure", sr.Campaigns[0].Err)
	}
}

// suiteResultAfterDraining completes every remaining job and returns
// the assembled suite result.
func suiteResultAfterDraining(t *testing.T, co *coord.Coordinator, w string) *sched.SuiteResult {
	t.Helper()
	for {
		idx, status, err := co.Claim(w)
		if err != nil {
			t.Fatal(err)
		}
		if status == coord.ClaimDrained {
			break
		}
		if status != coord.ClaimGranted {
			t.Fatalf("claim status %v with no other workers", status)
		}
		if _, err := co.Complete(w, idx, fakeOutcome(t, idx)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-co.Drained():
	default:
		t.Fatal("Drained() not closed after the last completion")
	}
	sr, err := co.SuiteResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Campaigns) != len(testCatalog) {
		t.Fatalf("suite result has %d campaigns, want %d", len(sr.Campaigns), len(testCatalog))
	}
	for i, c := range sr.Campaigns {
		if got := c.Job.Label(); got != testCatalog[i] {
			t.Errorf("campaign %d is %q, want %q", i, got, testCatalog[i])
		}
	}
	return sr
}
