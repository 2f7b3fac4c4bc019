//go:build !race

// The race detector allocates on its own account, so the allocation
// counts hold only without it.

package eai

import "testing"

// TestCatalogsAllocateNothing pins that the catalogs are built once:
// planning asks for one at every interaction point.
func TestCatalogsAllocateNothing(t *testing.T) {
	for _, e := range AllEntities() {
		if n := testing.AllocsPerRun(100, func() { CatalogDirect(e) }); n != 0 {
			t.Errorf("CatalogDirect(%s) made %v allocations, want 0", e, n)
		}
	}
	for _, sem := range AllSemantics() {
		if n := testing.AllocsPerRun(100, func() { CatalogIndirect(sem) }); n != 0 {
			t.Errorf("CatalogIndirect(%s) made %v allocations, want 0", sem, n)
		}
	}
}
