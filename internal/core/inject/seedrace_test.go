package inject_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps/turnin"
	"repro/internal/core/inject"
)

// TestSeededPlanConcurrentRuns hammers one prepared plan — one shared
// policy Seed, one shared frozen base world — from many goroutines at
// once and checks every run's outcome against a sequential pass over a
// second plan of the same campaign. Run under -race this pins the
// Seed's concurrency contract: EvaluateFrom must be safe for parallel
// calls because the dispatcher's workers share the campaign's seed.
func TestSeededPlanConcurrentRuns(t *testing.T) {
	t.Parallel()
	shared, err := inject.PrepareWith(turnin.Campaign(turnin.Vulnerable), inject.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := inject.PrepareWith(turnin.Campaign(turnin.Vulnerable), inject.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := shared.NumRuns()
	if n == 0 {
		t.Fatal("campaign planned zero runs")
	}
	want := make([]inject.Injection, n)
	for i := range want {
		want[i] = sequential.RunOne(i)
	}

	// Each run executed three times concurrently, all interleaved.
	const repeat = 3
	got := make([][]inject.Injection, repeat)
	var wg sync.WaitGroup
	for r := range got {
		got[r] = make([]inject.Injection, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(r, i int) {
				defer wg.Done()
				got[r][i] = shared.RunOne(i)
			}(r, i)
		}
	}
	wg.Wait()

	for r := range got {
		for i := range got[r] {
			if !reflect.DeepEqual(got[r][i], want[i]) {
				t.Errorf("run %d (pass %d): concurrent result diverged from sequential:\n  conc: %+v\n  seq:  %+v",
					i, r, got[r][i], want[i])
			}
		}
	}
}
