//go:build !race

// The race detector allocates on its own account, so the allocation
// counts hold only without it.

package inject_test

import (
	"testing"

	"repro/internal/core/inject"
)

// TestFingerprintAllocations pins that addressing a job costs O(1)
// allocations, whatever the size of its plan: the digest's hex string,
// and for a source fingerprint the defaulted attacker payload.
func TestFingerprintAllocations(t *testing.T) {
	const limit = 3
	for _, job := range suiteJobs() {
		opt := jobOptions(job)
		c := job.Build()
		p, err := inject.PrepareWith(c, opt)
		if err != nil {
			t.Fatalf("prepare %s: %v", job.Label(), err)
		}
		if n := testing.AllocsPerRun(5, func() { p.Fingerprint(job.Name, job.Variant) }); n > limit {
			t.Errorf("%s: Fingerprint made %v allocations, want at most %d", job.Label(), n, limit)
		}
		if n := testing.AllocsPerRun(5, func() { inject.SourceFingerprint(c, opt, job.Name, job.Variant) }); n > limit {
			t.Errorf("%s: SourceFingerprint made %v allocations, want at most %d", job.Label(), n, limit)
		}
	}
}
