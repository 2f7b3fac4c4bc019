//go:build !race

// The race detector allocates on its own account, so the allocation
// counts hold only without it.

package inject_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core/inject"
)

// maxRunAllocs bounds what one lpr/vulnerable injection run allocates on
// average: the forked kernel, the process, the run's hook state, the
// files the program opens and what its oracle verdict keeps. Each
// syscall's Call and Result, the recorded trace and its payloads are
// reused from run to run and count nothing.
const maxRunAllocs = 31

// TestRunOneAllocations pins the cost of an injection run over the lpr
// base plan's runs, in plan order on one goroutine.
func TestRunOneAllocations(t *testing.T) {
	var p *inject.ExecPlan
	for _, job := range apps.SuiteJobs() {
		if job.Name == "lpr" && job.Variant == "vulnerable" {
			var err error
			if p, err = inject.PrepareWith(job.Build(), jobOptions(job)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p == nil || p.NumRuns() == 0 {
		t.Fatal("no lpr/vulnerable plan with runs in the base catalog")
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < p.NumRuns(); i++ {
			p.RunOne(i)
		}
	}) / float64(p.NumRuns())
	t.Logf("%d runs, %.2f allocations per run", p.NumRuns(), allocs)
	if allocs > maxRunAllocs {
		t.Errorf("an lpr/vulnerable run makes %.2f allocations, want at most %d", allocs, maxRunAllocs)
	}
}
