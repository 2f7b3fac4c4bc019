package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeEnv builds eptest once and returns an environment whose matrix
// is the lpr slice the CLI's golden tests pin.
func smokeEnv(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("builds cmd/eptest and runs every workload")
	}
	eptest, err := BuildEptest("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, runs, err := ReportRuns(golden(t, "suite-matrix-lpr.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(golden(t, "findings-matrix-lpr.json"))
	return &Env{
		Eptest:  eptest,
		Workers: 2,
		Seed:    3,
		Base:    BaseCatalog,
		Matrix:  Catalog{Matrix: true, Filter: "lpr/*", Runs: runs, Findings: hex.EncodeToString(sum[:])},
	}
}

// One round of every workload BENCHMARK.json declares: set-up, one
// checked pass, and one traced pass whose spans account for the pass.
func TestSmokeEveryWorkload(t *testing.T) {
	base := smokeEnv(t)
	spec, err := LoadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		w := sw.Name
		t.Run(w, func(t *testing.T) {
			env := *base
			env.Work = t.TempDir()
			res := RunChild(&env, RoleRound, w, 0, "", time.Now())
			if res.Error != "" {
				t.Fatal(res.Error)
			}
			if len(res.Passes) != 1 || res.Passes[0].Runs == 0 || res.Setup <= 0 || res.MaxRSSKB <= 0 || res.AllocsPerRun <= 0 {
				t.Fatalf("round = %+v", res)
			}
			r, err := newRunner(w, &env)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.setup(); err != nil {
				t.Fatal(err)
			}
			_, pt, err := r.traced(NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			a := pt.account()
			var attributed time.Duration
			for _, d := range a.layers {
				attributed += d
			}
			if frac := attributed.Seconds() / a.total.Seconds(); frac < 0.5 || frac > 1.05 {
				t.Errorf("spans attribute %.2f of the traced pass", frac)
			}
		})
	}
}

// The traced run reports every per-layer metric BENCHMARK.json
// declares, and writes its trace.
func TestSmokeTracedRunReportsEveryLayerMetric(t *testing.T) {
	env := smokeEnv(t)
	env.Work = t.TempDir()
	spec, err := LoadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	res := RunChild(env, RoleTrace, WorkloadFleet, 0, tracePath, time.Now())
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	if _, err := Select(spec.PerLayer, res.Layers); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		if !strings.HasSuffix(m.Name, "_frac") && res.Layers[m.Name] < 0 {
			t.Errorf("%s = %v", m.Name, res.Layers[m.Name])
		}
	}
}

// A pass whose output differs from the pinned bytes fails its round.
func TestSmokeWrongOutputFails(t *testing.T) {
	env := smokeEnv(t)
	env.Work = t.TempDir()
	env.Base.Findings = strings.Repeat("0", 64)
	res := RunChild(env, RoleRound, WorkloadBase, 0, "", time.Now())
	if !strings.Contains(res.Error, "findings export sha256") {
		t.Fatalf("round error = %q, want a findings mismatch", res.Error)
	}
	rep := Aggregate(WorkloadBase, []RoundResult{res})
	if rep.Failed != 1 || rep.Attempted != 1 {
		t.Fatalf("attempted %d, failed %d; want 1, 1", rep.Attempted, rep.Failed)
	}
}
