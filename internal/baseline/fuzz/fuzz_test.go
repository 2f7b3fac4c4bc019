package fuzz

import (
	"testing"
)

func TestSuiteCleanRuns(t *testing.T) {
	t.Parallel()
	// Every utility survives its intended input.
	for _, target := range UtilitySuite() {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			t.Parallel()
			k, l := target.World()
			p := k.NewProc(l.Cred, l.Env, l.Cwd, l.Args...)
			exit, crash := k.Run(p, l.Prog)
			if crash != nil {
				t.Fatalf("clean run crashed: %v", crash)
			}
			if exit != 0 {
				t.Fatalf("clean exit = %d, stderr = %s", exit, p.Stderr.String())
			}
		})
	}
}

// TestFuzzCrashRate reproduces the Section 5 comparison point: random
// input crashes a substantial fraction (Miller: 25-33%) of the utility
// population — exactly the members with unchecked buffers.
func TestFuzzCrashRate(t *testing.T) {
	t.Parallel()
	results, crashed := RunSuite(UtilitySuite(), Options{Trials: 40, Seed: 1})
	if len(results) != 9 {
		t.Fatalf("results = %d", len(results))
	}
	rate := float64(crashed) / float64(len(results))
	if rate < 0.25 || rate > 0.40 {
		t.Errorf("suite crash rate = %.2f, want within Miller's 25-40%% band", rate)
	}
	// The suite members with unchecked buffers.
	vulnerable := map[string]bool{"grep": true, "banner": true, "cal": true}
	for _, r := range results {
		if vulnerable[r.Name] && r.Crashes == 0 {
			t.Errorf("%s never crashed in %d trials", r.Name, r.Trials)
		}
		if !vulnerable[r.Name] && r.Crashes > 0 {
			t.Errorf("%s crashed %d times; it has no unchecked buffer", r.Name, r.Crashes)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	t.Parallel()
	a := Run(UtilitySuite()[4], Options{Trials: 20, Seed: 7}) // grep
	b := Run(UtilitySuite()[4], Options{Trials: 20, Seed: 7})
	if a != b {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	c := Run(UtilitySuite()[4], Options{Trials: 20, Seed: 8})
	if a == c && a.Crashes == 0 {
		t.Log("different seeds coincided (allowed, but suspicious)")
	}
}

func TestCrashRateHelper(t *testing.T) {
	t.Parallel()
	r := Result{Trials: 40, Crashes: 10}
	if r.CrashRate() != 0.25 {
		t.Errorf("CrashRate = %v", r.CrashRate())
	}
	if (Result{}).CrashRate() != 0 {
		t.Error("empty CrashRate != 0")
	}
}

func TestPrintableMode(t *testing.T) {
	t.Parallel()
	// Printable payloads still crash the overflow bugs (length, not
	// content, is the trigger).
	r := Run(UtilitySuite()[5], Options{Trials: 20, Seed: 3, Printable: true}) // banner
	if r.Crashes == 0 {
		t.Error("printable fuzzing never crashed banner")
	}
}

func TestRobustUtilitiesRejectGracefully(t *testing.T) {
	t.Parallel()
	// cat under fuzz errors out (bad file names) rather than crashing.
	r := Run(UtilitySuite()[1], Options{Trials: 30, Seed: 11})
	if r.Crashes != 0 {
		t.Errorf("cat crashed %d times", r.Crashes)
	}
	if r.Errors == 0 {
		t.Error("cat never rejected random input")
	}
}
