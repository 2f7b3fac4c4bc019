//go:build !race

// The race detector allocates on its own account, so the allocation
// counts hold only without it.

package sched

import (
	"testing"

	"repro/internal/core/inject"
	"repro/internal/core/obs"
)

// fixedCache is a Cache that allocates nothing: it holds one result.
type fixedCache struct{ res *inject.Result }

func (c fixedCache) Get(string) (*inject.Result, bool)        { return c.res, true }
func (c fixedCache) Put(string, string, *inject.Result) error { return nil }

// TestCacheProbeUntracedAllocatesNothing pins that, with no tracer
// attached, a cache probe and write-back cost the dispatcher no
// allocation beyond the cache's own work: their span arguments are
// built only for a tracer.
func TestCacheProbeUntracedAllocatesNothing(t *testing.T) {
	d := &Dispatcher{Workers: 1, Cache: fixedCache{res: &inject.Result{}}, Metrics: obs.NewRegistry()}
	st := d.newState()
	if n := testing.AllocsPerRun(100, func() {
		st.cacheGet(0, "source", "fp", st.m.srcHit, st.m.srcMiss)
	}); n != 0 {
		t.Errorf("cacheGet made %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		st.cachePut(0, "plan", "fp", "lpr/vulnerable", nil)
	}); n != 0 {
		t.Errorf("cachePut made %v allocations, want 0", n)
	}
}
