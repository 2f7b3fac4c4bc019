package coord_test

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/matrix"
	"repro/internal/core/coord"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// worldCoord builds a coordinator over catalog on a fake clock with a
// 10s lease, a journal, and one registered worker per name.
func worldCoord(t *testing.T, catalog []string, names ...string) (*coord.Coordinator, *coord.MemJournal, *fakeClock, []string) {
	t.Helper()
	clk := newFakeClock()
	mj := &coord.MemJournal{}
	co := coord.New(catalog, coord.Options{LeaseTTL: 10 * time.Second, Now: clk.Now, Journal: mj})
	ids := make([]string, len(names))
	for i, n := range names {
		id, err := co.Register(n, catalog)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return co, mj, clk, ids
}

// labelOutcome builds a valid completion for a catalog label.
func labelOutcome(t testing.TB, label string) coord.Outcome {
	t.Helper()
	name, variant, _ := strings.Cut(label, "/")
	b, err := store.EncodeResult(&inject.Result{Campaign: label})
	if err != nil {
		t.Fatal(err)
	}
	return coord.Outcome{Name: name, Variant: variant, Result: b}
}

// TestClaimsByWorld walks the three grant rules: the caller's own
// world first, then a world no other leaseholder is in, then the
// lowest pending index anywhere.
func TestClaimsByWorld(t *testing.T) {
	t.Parallel()
	// Worlds: a/vulnerable {0, 2, 4}, b/vulnerable {1}, c/fixed {3}.
	catalog := []string{"a/vulnerable", "b/vulnerable", "a/vulnerable+x", "c/fixed", "a/vulnerable+y"}
	co, _, _, ids := worldCoord(t, catalog, "alice", "bob")
	a, b := ids[0], ids[1]
	mustClaim(t, co, a, 0) // lowest pending; alice is now in a
	mustClaim(t, co, b, 1) // a is alice's, so bob starts b
	mustClaim(t, co, a, 2) // alice stays in a, past bob's lower-index world
	mustClaim(t, co, b, 3) // b is drained; c is the free world
	mustClaim(t, co, b, 4) // nothing free: bob joins alice's world
}

// TestClaimsByWorldNeedLiveLease pins what holds a world: a worker's
// current world is held only while the worker has a live lease. A
// worker between a completion and its next claim holds nothing, so
// another worker may start in its world.
func TestClaimsByWorldNeedLiveLease(t *testing.T) {
	t.Parallel()
	// Worlds: a/vulnerable {0, 1}, b/vulnerable {2}.
	catalog := []string{"a/vulnerable", "a/vulnerable+x", "b/vulnerable"}
	co, _, _, ids := worldCoord(t, catalog, "alice", "bob")
	a, b := ids[0], ids[1]
	mustClaim(t, co, a, 0)
	if _, err := co.Complete(a, 0, labelOutcome(t, catalog[0])); err != nil {
		t.Fatal(err)
	}
	mustClaim(t, co, b, 1) // alice holds no lease: a is free
	mustClaim(t, co, a, 2) // a has nothing pending for alice
}

// TestClaimPriorityBeforeWorld pins that priority decides before world
// affinity: a high-priority campaign submitted mid-run is drained
// first, even while the worker's own world still has pending cells.
func TestClaimPriorityBeforeWorld(t *testing.T) {
	t.Parallel()
	// Worlds: a/vulnerable {0, 1, 2}, b/fixed {3, 4}.
	catalog := []string{"a/vulnerable", "a/vulnerable+x", "a/vulnerable+y", "b/fixed", "b/fixed+x"}
	co, _, _, ids := worldCoord(t, catalog, "alice")
	a := ids[0]
	mustClaim(t, co, a, 0)
	if _, err := co.Submit(coord.CampaignSpec{Name: "urgent", Filter: "b/*", Priority: 5}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{3, 4, 1, 2} {
		mustClaim(t, co, a, want)
	}
}

// TestRestoreKeepsLeaseholderWorlds pins that a restore rebuilds each
// leaseholder's current world by the claim fold, from the full journal
// and from its compacted snapshot alike, also for a worker that moved
// on while still holding higher-index leases in its previous world.
func TestRestoreKeepsLeaseholderWorlds(t *testing.T) {
	t.Parallel()
	// Worlds: x/vulnerable {0, 3}, y/vulnerable {1, 2, 5}, z/fixed {4}.
	catalog := []string{"x/vulnerable", "y/vulnerable", "y/vulnerable+a", "x/vulnerable+a", "z/fixed", "y/vulnerable+b"}
	co, mj, clk, ids := worldCoord(t, catalog, "alice", "bob")
	a, b := ids[0], ids[1]
	mustClaim(t, co, a, 0)
	mustClaim(t, co, a, 3)
	mustClaim(t, co, a, 1) // x is drained: alice is now in y, holding 0, 1 and 3
	compact := &coord.MemJournal{}
	full, err := coord.Restore(catalog, coord.Options{LeaseTTL: 10 * time.Second, Now: clk.Now, Journal: compact}, mj.Records())
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := coord.Restore(catalog, coord.Options{LeaseTTL: 10 * time.Second, Now: clk.Now}, compact.Records())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*coord.Coordinator{full, compacted} {
		mustClaim(t, r, b, 4) // y is alice's: bob starts z past y's lower cell
		mustClaim(t, r, a, 2)
		mustClaim(t, r, b, 5) // nothing free: bob joins y
	}
}

// TestMatrixAlternatingClaimsSplitOneWorld drains the matrix catalog,
// in its own order and shuffled, with two workers that alternate: each
// completes its lease and claims the next while the other holds one,
// as two one-worker fleet processes do. Claiming by world leaves at
// most one world per worker with cells on both workers: the last one,
// which the first worker to run out joins.
func TestMatrixAlternatingClaimsSplitOneWorld(t *testing.T) {
	t.Parallel()
	labels := make([]string, 0, 600)
	for _, j := range matrix.SuiteJobs() {
		labels = append(labels, j.Label())
	}
	shuffled := append([]string(nil), labels...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, catalog := range map[string][]string{"matrix": labels, "shuffled": shuffled} {
		co, _, _, ids := worldCoord(t, catalog, "alice", "bob")
		outcomes := make([]coord.Outcome, len(catalog))
		for i, l := range catalog {
			outcomes[i] = labelOutcome(t, l)
		}
		on := map[string]map[string]bool{} // world key -> workers with a cell there
		held := map[string]int{}           // worker -> its live lease
		for turn := 0; ; turn++ {
			w := ids[turn%2]
			if idx, ok := held[w]; ok {
				if _, err := co.Complete(w, idx, outcomes[idx]); err != nil {
					t.Fatal(err)
				}
				delete(held, w)
			}
			idx, st, err := co.Claim(w)
			if err != nil {
				t.Fatal(err)
			}
			if st == coord.ClaimDrained {
				break
			}
			if st == coord.ClaimGranted {
				held[w] = idx
				key := sched.WorldKey(catalog[idx])
				if on[key] == nil {
					on[key] = map[string]bool{}
				}
				on[key][w] = true
			}
		}
		split := 0
		for _, ws := range on {
			if len(ws) > 1 {
				split++
			}
		}
		if split > 1 {
			t.Errorf("%s: %d worlds split across the two workers, want at most one", name, split)
		}
		if len(on) < 20 {
			t.Errorf("%s: only %d worlds claimed", name, len(on))
		}
	}
}

// TestSuiteResultDecodesOutsideTheLock runs the drain's assembly
// concurrently with claims, status reads and late duplicate
// completions (run it with -race): the outcomes it decodes never
// change once recorded, so the result stays the same.
func TestSuiteResultDecodesOutsideTheLock(t *testing.T) {
	t.Parallel()
	co, _, ids := newCoord(t, "w", "late")
	want := suiteResultAfterDraining(t, co, ids[0])
	dup := fakeOutcome(t, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st := co.Status(); !st.Drained {
					t.Error("Status lost the drain")
					return
				}
				if _, st, err := co.Claim(ids[1]); err != nil || st != coord.ClaimDrained {
					t.Errorf("claim = (%v, %v), want drained", st, err)
					return
				}
				if d, err := co.Complete(ids[1], 0, dup); err != nil || !d {
					t.Errorf("late completion = (dup %v, %v), want a duplicate", d, err)
					return
				}
			}
		}()
	}
	for n := 0; n < 200; n++ {
		got, err := co.SuiteResult()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SuiteResult changed under concurrent calls:\n got %+v\nwant %+v", got, want)
		}
	}
	close(stop)
	wg.Wait()
}
