package coord_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core/coord"
)

// TestRenderPinned pins the worker's "coordinator:" report section
// byte for byte, read over HTTP as a -coord-url worker reads it: two
// live workers with claims, a renewal, an expiry and a duplicate, one
// departed worker folded into the aggregate, and a submitted campaign
// beside the default one.
func TestRenderPinned(t *testing.T) {
	t.Parallel()
	co, clk, ids := newCoord(t, "ghost", "alpha", "beta")
	ghost, alpha, beta := ids[0], ids[1], ids[2]
	claim := func(id string) int {
		t.Helper()
		idx, st, err := co.Claim(id)
		if err != nil || st != coord.ClaimGranted {
			t.Fatalf("Claim(%s) = (%d, %v, %v)", id, idx, st, err)
		}
		return idx
	}
	complete := func(id string, idx int, wantDup bool) {
		t.Helper()
		if dup, err := co.Complete(id, idx, fakeOutcome(t, idx)); err != nil || dup != wantDup {
			t.Fatalf("Complete(%s, %d) = (dup %v, %v), want dup %v", id, idx, dup, err, wantDup)
		}
	}
	renew := func(id string, indices ...int) {
		t.Helper()
		if _, _, err := co.Renew(id, indices); err != nil {
			t.Fatal(err)
		}
	}

	g := claim(ghost)
	complete(ghost, g, false)
	claim(alpha) // never renewed: expires
	b := claim(beta)
	clk.Advance(5 * time.Second)
	renew(beta, b)
	complete(beta, b, false)
	clk.Advance(7 * time.Second)
	complete(beta, claim(beta), false)
	complete(beta, g, true)
	clk.Advance(28 * time.Second)
	claim(alpha)
	renew(beta)
	// ghost has been silent for 70s with no lease: the sweep folds it
	// into the departed aggregate.
	clk.Advance(30 * time.Second)
	if _, err := co.Submit(coord.CampaignSpec{Name: "urgent", Filter: "b/*", Priority: 2}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(coord.NewServer(co))
	defer srv.Close()
	cl, err := coord.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.State()
	if err != nil {
		t.Fatal(err)
	}
	const want = "coordinator: 4 job(s) — 3 done, 0 claimed, 1 pending; 2 requeue(s) after lease expiry, 1 duplicate completion(s) discarded\n" +
		"  w2   alpha                   2 claim(s)    0 completed    0 renewal(s)   2 expired   0 duplicate(s)\n" +
		"  w3   beta                    2 claim(s)    2 completed    1 renewal(s)   0 expired   1 duplicate(s)\n" +
		"  departed: 1 worker(s) — 1 claim(s) 1 completed 0 expired 0 duplicate(s)\n" +
		"  campaign default                 3/4 done (running)\n" +
		"  campaign urgent                  1/2 done (running)\n"
	if got := st.Render(); got != want {
		t.Errorf("Render:\n got %q\nwant %q", got, want)
	}
}
